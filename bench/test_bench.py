"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"dialogues": 17, "tt_streams": 6, "sweep_streams": 2, "eval_dialogues": 6}


def _tiny(name: str) -> run.Workload:
    wl = run.WORKLOADS[name]
    return dataclasses.replace(wl, shards=min(wl.shards, 2), **TINY)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    result, errors = run.run(workload, seed=3, seconds=0.5, trace=trace, work=tmp_path / "work",
                             wl=_tiny(workload))
    assert errors == []
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (tmp_path / "work").exists()


def test_generators_follow_the_seed():
    assert gen.corpus_records(5, 20) == gen.corpus_records(5, 20)
    assert gen.corpus_records(5, 20) != gen.corpus_records(6, 20)
    assert gen.stream_records(5, 4) == gen.stream_records(5, 4)
    counts = sorted(len(r["turns"]) for r in gen.corpus_records(5, 34))
    assert counts == sorted(list(range(4, 21)) * 2)
    for seed in (5, 6):
        assert len(gen.stream_records(seed, 4)) == 2 * sum(gen.STREAM_FRAMES)


def test_listen_dominant_streams_do_not_fire_early():
    rows = gen.stream_records(9, 20)
    by_stream: dict[str, list[dict]] = {}
    for r in rows:
        by_stream.setdefault(r["stream_id"], []).append(r)
    for frames in by_stream.values():
        head = frames[: len(frames) - gen.RAMP - 1]
        assert all(f["p_listen"] >= 0.86 for f in head)


def test_checks_fail_loudly():
    from todvoice.corpus import loads_dialogue

    record = gen.corpus_records(1, 1)[0]
    good = loads_dialogue(json.dumps(record))
    broken = dataclasses.replace(good, turns=good.turns[:1] + good.turns[:1])
    tally = run.Tally()
    run.check_augment(tally, [good.dialogue_id, "lost"], [broken], [], [], synthesized=False)
    assert any("fails validation" in e for e in tally.errors)
    assert any("quarantined" in e for e in tally.errors)
    tally = run.Tally()
    run.check_eval(tally, {"dialogues": 1, "ga": 1.5, "smr": 0.5, "wer": {"overall": {"utterances": 2}}}, 1, 3)
    assert len(tally.errors) == 2


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = subprocess.run([*SPEC["command"], "--workload", "evaluate", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
