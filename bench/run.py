#!/usr/bin/env python3
"""todvoice benchmark: end-to-end throughput, or a traced per-layer breakdown.

    python3 bench/run.py --workload augment_synth --seed 1 --seconds 20 --trace 0

Every run generates its inputs from --seed (bench/gen.py), drives the product
through its public entry points -- `todvoice.cli.main` in process for
`augment`, `eval-turn-taking` and `eval-dialogue`, and `sweep_thresholds`,
which the CLI lacks -- checks every output, and prints one JSON object as its
last line. --trace 0 prints the end-to-end metrics; --trace 1 replays the same
work with spans around each public call and prints the per-layer metrics.
Scratch files live in bench/_work and are removed when the run ends. The exit
code is 1 when an output check fails. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import logging
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import todvoice.cli  # noqa: E402
from todvoice.corpus import dumps_dialogue, load_corpus, save_corpus, validate_dialogue  # noqa: E402
from todvoice.metrics import aggregate_similarity, evaluate_dialogue_coverage, ga_smr  # noqa: E402
from todvoice.pipeline import build_clients, load_config, run_pipeline, wer_validation  # noqa: E402
from todvoice.speakers import build_pool, load_speaker_manifest  # noqa: E402
from todvoice.textnorm import normalize_text  # noqa: E402
from todvoice.turntaking import (  # noqa: E402
    DEFAULT_THRESHOLDS,
    OUTCOME_CLASSES,
    STRATEGY_NAMES,
    StrategyConfig,
    classify_outcome,
    evaluate_set,
    read_streams,
    run_stream,
    sweep_thresholds,
    trigger_window_of,
)

import tracing as tr  # noqa: E402

WORK = BENCH / "_work"
SETUP_PROBES = 7
MIN_REPS = 3
ASR_CORRUPTION = 0.15
# Sweep grid: each thresholded strategy's defaults scaled by these factors,
# 10 x 10 pairs, all with t_bargein < t_turnend; 1.0 keeps the default pair.
SWEEP_FACTORS = (0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5)
PHASES = ("augment", "turntaking", "sweep", "eval")


@dataclasses.dataclass(frozen=True)
class Workload:
    augment: str  # "synth", "text" or "passthrough" (all stages off, on pre-augmented input)
    workers: int
    dialogues: int  # input dialogues per augment rep
    shards: int  # distinct augment inputs, cycled across reps
    tt_streams: int
    sweep_streams: int  # the first N turn-taking streams
    eval_dialogues: int
    shares: tuple[float, float, float, float]  # share of --seconds per phase, in PHASES order


# Every workload reports every end-to-end metric, so each runs all four phases;
# the shares put most of the time on the phase the workload is about.
WORKLOADS = {
    "augment_synth": Workload(
        augment="synth", workers=2, dialogues=34, shards=8, tt_streams=40, sweep_streams=2,
        eval_dialogues=34, shares=(0.55, 0.15, 0.15, 0.15)),
    "augment_text": Workload(
        augment="text", workers=1, dialogues=340, shards=1, tt_streams=40, sweep_streams=2,
        eval_dialogues=170, shares=(0.55, 0.15, 0.15, 0.15)),
    "evaluate": Workload(
        augment="passthrough", workers=1, dialogues=340, shards=1, tt_streams=100, sweep_streams=4,
        eval_dialogues=85, shares=(0.1, 0.2, 0.5, 0.2)),
}


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


@dataclasses.dataclass
class Inputs:
    augment: list[Path]
    augment_config: Path
    eval_config: Path
    users: Path
    assistants: Path
    streams: Path
    eval_input: Path


def make_inputs(wl: Workload, seed: int, work: Path) -> Inputs:
    users, assistants = gen.speaker_manifests(seed)
    inp = Inputs(
        augment=[work / "inputs" / f"augment{k}.jsonl" for k in range(wl.shards)],
        augment_config=work / "inputs" / "augment.json",
        eval_config=work / "inputs" / "eval.json",
        users=work / "inputs" / "speakers.json",
        assistants=work / "inputs" / "assistants.json",
        streams=work / "inputs" / "streams.jsonl",
        eval_input=work / "inputs" / "eval.jsonl",
    )
    inp.users.parent.mkdir(parents=True)
    inp.users.write_text(json.dumps(users), encoding="utf-8")
    inp.assistants.write_text(json.dumps(assistants), encoding="utf-8")
    augment_cfg: dict = {"global_seed": seed}
    if wl.augment == "passthrough":
        augment_cfg["stages"] = dict.fromkeys(("crossturn", "bargein", "disfluency", "emotion", "synthesis"), False)
        records = gen.augmented_records(seed, wl.dialogues)
        gen.write_ndjson(records, inp.augment[0])
        gen.write_ndjson(records[: wl.eval_dialogues], inp.eval_input)
    else:
        augment_cfg.update(speaker_manifest=str(inp.users), assistant_manifest=str(inp.assistants))
        for k, path in enumerate(inp.augment):
            gen.write_ndjson(gen.corpus_records(seed, wl.dialogues, prefix=f"s{k}"), path)
    inp.augment_config.write_text(json.dumps(augment_cfg), encoding="utf-8")
    inp.eval_config.write_text(
        json.dumps({"global_seed": seed, "asr_corruption": ASR_CORRUPTION, "out_dir": str(work / "eval_audio")}),
        encoding="utf-8")
    gen.write_ndjson(gen.stream_records(seed, wl.tt_streams), inp.streams)
    return inp


# --- running the product ---------------------------------------------------------


class _FormatAndDrop(logging.Handler):
    """Formats each record, as a console handler would, and discards it."""

    def emit(self, record: logging.LogRecord) -> None:
        self.format(record)


def cli(args: list[str]) -> tuple[float, str]:
    """Run `todvoice ARGS` in process; returns (seconds, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        todvoice.cli.main.main(args=args, prog_name="todvoice", standalone_mode=False)
        seconds = time.perf_counter() - t0
    return seconds, out.getvalue()


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes() if p.exists() else b"<absent>")
    return h.hexdigest()


def read_rows(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


# --- output checks ---------------------------------------------------------------


def check_augment(tally: Tally, input_ids: list[str], out, quarantined: list[dict],
                  manifest: list[dict], synthesized: bool) -> None:
    """Validate an augment result: every output dialogue passes
    validate_dialogue, output plus quarantine is the input, and with synthesis
    the ok manifest rows are exactly the turns that carry audio."""
    for d in out:
        violations = validate_dialogue(d)
        tally.check(not violations, f"augment: {d.dialogue_id} fails validation: {violations[:3]}")
    got = sorted([d.dialogue_id for d in out] + [q["dialogue_id"] for q in quarantined])
    tally.check(got == sorted(input_ids), f"augment: {len(out)} out + {len(quarantined)} quarantined "
                                          f"!= {len(input_ids)} in")
    if synthesized:
        with_audio = {(d.dialogue_id, t.index) for d in out for t in d.turns if t.audio_ref}
        ok_rows = {(r["dialogue_id"], r["turn"]) for r in manifest if r["status"] == "ok"}
        tally.check(ok_rows == with_audio, "augment: manifest ok rows != turns with audio")
        tally.check(len(manifest) == sum(len(d.turns) for d in out), "augment: manifest rows != output turns")
    tally.attempted += len(input_ids) + len(manifest)
    tally.failed += len(quarantined) + sum(1 for r in manifest if r["status"] != "ok")


def expected_outcomes(streams, strategy: str) -> tuple[dict, int]:
    """Outcome table and frames stepped for one strategy, from run_stream."""
    cfg = StrategyConfig(strategy)
    counts: dict[str, dict[str, int]] = {}
    frames = 0
    for s in streams:
        fire = run_stream(s.frames, cfg)
        frames += fire.frame_index + 1 if fire.fired else len(s.frames)
        outcome = classify_outcome(fire, s.truth, trigger_window_of(len(s.frames)))
        counts.setdefault(s.truth, dict.fromkeys(OUTCOME_CLASSES, 0))[outcome] += 1
    table = {}
    for truth, c in counts.items():
        total = sum(c.values())
        table[truth] = {k: 100.0 * v / total for k, v in c.items()}
        table[truth]["binary"] = table[truth]["correct"] + table[truth]["confused"]
    return table, frames


def check_turntaking(tally: Tally, strategy: str, rows: dict, expected: dict, per_truth: dict[str, int]) -> None:
    """Outcome percentages turn back into whole counts that total the streams of
    each truth class, and match the outcomes run_stream gives."""
    for truth, n in per_truth.items():
        counts = [rows.get(truth, {}).get(k, -1.0) * n / 100 for k in OUTCOME_CLASSES]
        whole = all(abs(c - round(c)) < 1e-6 for c in counts)
        tally.check(whole and sum(round(c) for c in counts) == n,
                    f"turn-taking {strategy}: {truth} outcomes do not total {n} streams")
    tally.check(rows == expected, f"turn-taking {strategy}: outcomes differ from run_stream")


def sweep_grid(strategy: str) -> tuple[list[float], list[float]]:
    te, bi = DEFAULT_THRESHOLDS[strategy]
    return [te * f for f in SWEEP_FACTORS], [bi * f for f in SWEEP_FACTORS]


def check_sweep(tally: Tally, strategy: str, rows: list[dict], pairs) -> None:
    te, bi = DEFAULT_THRESHOLDS[strategy]
    tally.check(len(rows) == len(SWEEP_FACTORS) ** 2, f"sweep {strategy}: {len(rows)} rows")
    at_default = [r["table"] for r in rows if (r["t_turnend"], r["t_bargein"]) == (te, bi)]
    want = evaluate_set(pairs, StrategyConfig(strategy)).as_table()
    tally.check(at_default == [want], f"sweep {strategy}: default-threshold row != evaluate_set")


def check_eval(tally: Tally, res: dict, n_dialogues: int, n_utterances: int) -> None:
    tally.check(res["dialogues"] == n_dialogues, "eval-dialogue: dialogue count")
    tally.check(0.0 <= res["ga"] <= 1.0 and 0.0 <= res["smr"] <= 1.0, "eval-dialogue: GA/SMR outside [0, 1]")
    wer = res.get("wer", {})
    groups = sum(cell["utterances"] for name, cell in wer.items() if name != "overall")
    tally.check(wer.get("overall", {}).get("utterances") == n_utterances == groups,
                f"eval-dialogue: WER utterances != {n_utterances} sampled user turns with audio")


# --- untraced phases -------------------------------------------------------------
#
# Each phase_* returns a rep function: rep(i) does the phase's work once through
# the product's entry point, checks the output outside the timed region, and
# returns (work units, timed seconds).


def phase_augment(wl: Workload, inp: Inputs, seed: int, work: Path, tally: Tally):
    input_ids = [[json.loads(line)["dialogue_id"] for line in p.read_text(encoding="utf-8").splitlines()]
                 for p in inp.augment]
    first: dict[int, str] = {}
    tallied: dict[int, tuple[int, int]] = {}  # shard -> (attempted, failed) of one rep

    def rep(i: int) -> tuple[int, float]:
        shard = i % wl.shards
        root = work / "augment"
        out_path, out_dir = root / "out.jsonl", root / "out"
        args = ["--config", str(inp.augment_config), "--seed", str(seed), "augment",
                str(inp.augment[shard]), str(out_path), "--out-dir", str(out_dir), "--workers", str(wl.workers)]
        if wl.augment != "synth":
            args.append("--no-synthesis")
        seconds, _ = cli(args)
        manifest_path, quarantine_path = out_dir / "synthesis_manifest.jsonl", out_dir / "quarantine.jsonl"
        d = digest(out_path, manifest_path, quarantine_path)
        if shard not in first:
            first[shard] = d
            before = tally.attempted, tally.failed
            check_augment(tally, input_ids[shard], load_corpus(out_path), read_rows(quarantine_path),
                          read_rows(manifest_path), wl.augment == "synth")
            tallied[shard] = tally.attempted - before[0], tally.failed - before[1]
            if wl.augment != "passthrough" and shard == 0:
                lines = out_path.read_text(encoding="utf-8").splitlines(keepends=True)
                inp.eval_input.write_text("".join(lines[: wl.eval_dialogues]), encoding="utf-8")
        else:
            tally.check(d == first[shard], f"augment: shard {shard} output differs between reps")
            tally.attempted += tallied[shard][0]
            tally.failed += tallied[shard][1]
        shutil.rmtree(root)  # keeps the disk footprint to one shard's audio
        return len(input_ids[shard]), seconds

    return rep


def phase_turntaking(inp: Inputs, tally: Tally):
    streams = read_streams(inp.streams)
    per_truth: dict[str, int] = {}
    for s in streams:
        per_truth[s.truth] = per_truth.get(s.truth, 0) + 1
    expected = {name: expected_outcomes(streams, name) for name in STRATEGY_NAMES}
    frames = sum(f for _, f in expected.values())
    first: list[str] = []

    def rep(i: int) -> tuple[int, float]:
        total, outs = 0.0, []
        for name in STRATEGY_NAMES:
            seconds, out = cli(["eval-turn-taking", str(inp.streams), "--strategy", name])
            total += seconds
            outs.append(out)
        if not first:
            first.extend(outs)
            for name, out in zip(STRATEGY_NAMES, outs):
                check_turntaking(tally, name, json.loads(out)["rows"], expected[name][0], per_truth)
        else:
            tally.check(outs == first, "turn-taking: output differs between reps")
        tally.attempted += len(streams) * len(STRATEGY_NAMES)
        return frames, total

    return rep


def phase_sweep(wl: Workload, inp: Inputs, tally: Tally):
    pairs = [(s.frames, s.truth) for s in read_streams(inp.streams)[: wl.sweep_streams]]
    first: dict[str, list] = {}

    def rep(i: int) -> tuple[int, float]:
        t0 = time.perf_counter()
        rows = {name: sweep_thresholds(pairs, name, *sweep_grid(name)) for name in DEFAULT_THRESHOLDS}
        seconds = time.perf_counter() - t0
        if not first:
            first.update(rows)
            for name, r in rows.items():
                check_sweep(tally, name, r, pairs)
        else:
            tally.check(rows == first, "sweep: rows differ between reps")
        configs = sum(len(r) for r in rows.values())
        tally.attempted += configs
        return configs, seconds

    return rep


def eval_expectations(path: Path) -> tuple[int, int]:
    dialogues = load_corpus(path)
    utterances = sum(1 for d in dialogues for t in d.user_turns()
                     if t.audio_ref and normalize_text(t.text).split())
    return len(dialogues), utterances


def phase_eval(inp: Inputs, seed: int, tally: Tally):
    n, utterances = eval_expectations(inp.eval_input)
    first: list[str] = []

    def rep(i: int) -> tuple[int, float]:
        seconds, out = cli(["--config", str(inp.eval_config), "--seed", str(seed), "eval-dialogue",
                            str(inp.eval_input), "--wer-sample", str(n), "--similarity"])
        res = json.loads(out)
        if not first:
            first.append(out)
            check_eval(tally, res, n, utterances)
        else:
            tally.check(out == first[0], "eval-dialogue: output differs between reps")
        tally.attempted += n + utterances
        tally.failed += res.get("wer_failed_files", 0)
        return n, seconds

    return rep


def interleave(seconds: float, reps: dict, shares: dict[str, float]) -> dict[str, float]:
    """Run the phases' reps interleaved until `seconds` have passed and each
    phase has MIN_REPS, always picking the phase furthest below its share of
    the timed seconds. The host's speed drifts over seconds; interleaving
    spreads every phase over the whole run, so a slow spell does not fall on
    one phase alone. Returns each phase's median throughput (work units per
    timed second) and reports the spread of its reps on stderr."""
    spent = dict.fromkeys(reps, 0.0)
    rates: dict[str, list[float]] = {name: [] for name in reps}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or min(map(len, rates.values())) < MIN_REPS:
        name = min(reps, key=lambda p: (spent[p] / shares[p], len(rates[p])))
        gc.collect()  # garbage left by earlier reps is not this rep's cost
        units, timed = reps[name](len(rates[name]))
        spent[name] += timed
        rates[name].append(units / timed)
    for name, r in rates.items():
        print(f"{name}: {len(r)} reps, {spent[name]:.2f} s timed, min {min(r):.6g} "
              f"median {statistics.median(r):.6g} max {max(r):.6g}", file=sys.stderr)
    return {name: statistics.median(r) for name, r in rates.items()}


def measure_setup(inp: Inputs) -> float:
    """Median over fresh interpreters of todvoice's set-up (bench/setup_probe.py)."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(inp.augment_config), str(inp.users),
             str(inp.assistants)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def untraced(wl: Workload, inp: Inputs, seed: int, seconds: float, work: Path, tally: Tally) -> dict:
    augment = phase_augment(wl, inp, seed, work, tally)
    _, warmup_s = augment(0)  # not counted; writes the eval-dialogue input of the augment workloads
    reps = {
        "augment": lambda i: augment(i + 1),
        "turntaking": phase_turntaking(inp, tally),
        "sweep": phase_sweep(wl, inp, tally),
        "eval": phase_eval(inp, seed, tally),
    }
    rate = interleave(seconds - warmup_s, reps, dict(zip(PHASES, wl.shares)))
    return {
        "dialogues_per_s": (rate["augment"], "dialogues/s"),
        "tt_frames_per_s": (rate["turntaking"], "frames/s"),
        "sweep_configs_per_s": (rate["sweep"], "configs/s"),
        "eval_dialogues_per_s": (rate["eval"], "dialogues/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# --- traced run ------------------------------------------------------------------


def serialize(dialogues, manifest, quarantined) -> bytes:
    parts = [dumps_dialogue(d) for d in dialogues]
    parts += [json.dumps(r.to_dict()) for r in manifest]
    parts += [json.dumps(q.to_dict()) for q in quarantined]
    return "\n".join(parts).encode("utf-8")


def traced_augment(wl: Workload, inp: Inputs, seed: int, work: Path, tracer: tr.Tracer,
                   failures: Counter, tally: Tally) -> dict:
    base = dataclasses.replace(load_config(inp.augment_config), global_seed=seed)
    if wl.augment != "synth":
        base = dataclasses.replace(base, stages=dataclasses.replace(base.stages, synthesis=False))
    assistants = load_speaker_manifest(base.assistant_manifest) if base.assistant_manifest else None
    pool = None
    if base.speaker_manifest:
        pool = build_pool(load_speaker_manifest(base.speaker_manifest),
                          {sp.speaker_id for sp in assistants or ()})
    outcomes = tr.Outcomes()
    load_s = save_s = replay_s = untraced_after_s = 0.0
    bytes_read = bytes_written = 0
    wall = dict.fromkeys({1, wl.workers}, 0.0)
    tts_bytes = jobs = failed_jobs = 0
    root = work / "trace"
    # warm-up, not counted: first calls fill caches that would otherwise bias
    # whichever of run_pipeline and the replay happens to run first
    run_pipeline(load_corpus(inp.augment[0]), dataclasses.replace(base, out_dir=str(root / "warmup")))
    shutil.rmtree(root, ignore_errors=True)
    for shard, path in enumerate(inp.augment):
        t0 = time.perf_counter()
        dialogues = load_corpus(path)
        load_s += time.perf_counter() - t0
        bytes_read += path.stat().st_size
        expected = None
        for workers in sorted(wall):
            cfg = dataclasses.replace(base, workers=workers, out_dir=str(root / f"workers{workers}"))
            t0 = time.perf_counter()
            res = run_pipeline(dialogues, cfg)
            wall[workers] += time.perf_counter() - t0
            shutil.rmtree(cfg.out_dir, ignore_errors=True)
            got = serialize(res.dialogues, res.manifest, res.quarantined)
            tally.check(expected is None or got == expected, "trace: run_pipeline output depends on workers")
            expected = got
        check_augment(tally, [d.dialogue_id for d in dialogues], res.dialogues,
                      [q.to_dict() for q in res.quarantined], [r.to_dict() for r in res.manifest],
                      base.stages.synthesis)
        if shard == 0 and wl.augment != "passthrough":
            save_corpus(res.dialogues[: wl.eval_dialogues], inp.eval_input)

        cfg = dataclasses.replace(base, workers=1, out_dir=str(root / "replay"))
        clients = tr.wrap_clients(build_clients(cfg), tracer, failures)
        t0 = time.perf_counter()
        results = [tr.replay_dialogue(d, cfg, clients, pool, assistants, tracer, outcomes) for d in dialogues]
        replay_s += time.perf_counter() - t0
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        # untraced again after the replay, so drift and warm-up affect both sides alike
        t0 = time.perf_counter()
        again = run_pipeline(dialogues, dataclasses.replace(cfg, out_dir=str(root / "again")))
        untraced_after_s += time.perf_counter() - t0
        shutil.rmtree(root / "again", ignore_errors=True)
        tally.check(serialize(again.dialogues, again.manifest, again.quarantined) == expected,
                    "trace: run_pipeline output differs between calls")
        tts_bytes += clients.tts.audio_bytes
        out = [d for d, _, bad in results if bad is None]
        manifest = sorted((r for d, rows, bad in results if bad is None for r in rows),
                          key=lambda r: (r.dialogue_id, r.turn))
        quarantined = [bad for _, _, bad in results if bad is not None]
        jobs += len(manifest)
        failed_jobs += sum(1 for r in manifest if r.status != "ok")
        tally.check(serialize(out, manifest, quarantined) == expected,
                    "trace: replayed stages differ from run_pipeline output")

        t0 = time.perf_counter()
        save_corpus(out, root / "out.jsonl")
        save_s += time.perf_counter() - t0
        bytes_written += (root / "out.jsonl").stat().st_size
        shutil.rmtree(root)

    metrics = tr.stage_metrics(tracer)
    stage_total = sum(metrics[f"{name}.s"][0] for name in tr.STAGES)
    metrics.update({
        "crossturn.changed": (outcomes.crossturn_changed, "count"),
        "bargein.inserted": (outcomes.bargein_inserted, "count"),
        "disfluency.disfluent_turns": (outcomes.disfluent_turns, "count"),
        "validate.violations": (outcomes.violations, "count"),
        "synthesis.jobs": (jobs, "count"),
        "synthesis.failed": (failed_jobs, "count"),
        "synthesis.audio_bytes": (tts_bytes, "bytes"),
        "corpus.load_s": (load_s, "s"),
        "corpus.save_s": (save_s, "s"),
        "corpus.bytes_read": (bytes_read, "bytes"),
        "corpus.bytes_written": (bytes_written, "bytes"),
        "pipeline.wall_s": (wall[wl.workers], "s"),
        "pipeline.overhead_s": (wall[wl.workers] - stage_total, "s"),
        "trace.overhead_ratio": (replay_s / ((wall[1] + untraced_after_s) / 2), "ratio"),
    })
    return metrics


def traced_turntaking(wl: Workload, inp: Inputs, tally: Tally) -> dict:
    t0 = time.perf_counter()
    streams = read_streams(inp.streams)
    metrics = {"turntaking.read_streams_s": (time.perf_counter() - t0, "s")}
    pairs = [(s.frames, s.truth) for s in streams]
    for name in STRATEGY_NAMES:
        t0 = time.perf_counter()
        report = evaluate_set(pairs, StrategyConfig(name))
        metrics[f"turntaking.{name}.s"] = (time.perf_counter() - t0, "s")
        table, frames = expected_outcomes(streams, name)
        metrics[f"turntaking.{name}.frames_stepped"] = (frames, "frames")
        tally.check(report.as_table() == table, f"turn-taking {name}: evaluate_set differs from run_stream")
        tally.check(sum(c.total for c in report.per_truth.values()) == len(streams),
                    f"turn-taking {name}: outcome totals != stream count")
        tally.attempted += len(streams)
    sweep_pairs = pairs[: wl.sweep_streams]
    for name in DEFAULT_THRESHOLDS:
        t0 = time.perf_counter()
        rows = sweep_thresholds(sweep_pairs, name, *sweep_grid(name))
        metrics[f"turntaking.sweep.{name}.s"] = (time.perf_counter() - t0, "s")
        check_sweep(tally, name, rows, sweep_pairs)
        tally.attempted += len(rows)
    return metrics


def traced_eval(inp: Inputs, seed: int, tracer: tr.Tracer, failures: Counter, tally: Tally) -> dict:
    """eval-dialogue's sequence of public calls, timed call by call."""
    cfg = dataclasses.replace(load_config(inp.eval_config), global_seed=seed)
    dialogues = load_corpus(inp.eval_input)
    n, utterances = eval_expectations(inp.eval_input)
    clients = build_clients(cfg)
    for d in dialogues:
        for t in d.turns:
            if t.audio_ref:
                sp = d.user_speaker if t.role.value == "user" else d.assistant_speaker
                clients.directory.register(str(Path(cfg.out_dir) / t.audio_ref), t.text,
                                           sp.speaker_id if sp else t.role.value)
    clients = tr.wrap_clients(clients, tracer, failures)
    metrics = {}
    t0 = time.perf_counter()
    states = [evaluate_dialogue_coverage(d, clients.judge) for d in dialogues]
    metrics["metrics.coverage_s"] = (time.perf_counter() - t0, "s")
    t0 = time.perf_counter()
    coverage = ga_smr(states)
    metrics["metrics.ga_smr_s"] = (time.perf_counter() - t0, "s")
    t0 = time.perf_counter()
    wer = wer_validation(dialogues, n, clients.asr, cfg.out_dir, seed=cfg.global_seed)
    metrics["metrics.wer_validation_s"] = (time.perf_counter() - t0, "s")
    metrics["metrics.wer_words"] = (sum(len(normalize_text(t.text).split()) for d in dialogues
                                        for t in d.user_turns() if t.audio_ref), "words")
    t0 = time.perf_counter()
    vectors = [v for v in ([clients.embed.embed(str(Path(cfg.out_dir) / t.audio_ref))
                            for t in d.user_turns() if t.audio_ref] for d in dialogues) if len(v) >= 2]
    if vectors:
        aggregate_similarity(vectors)
    metrics["metrics.similarity_s"] = (time.perf_counter() - t0, "s")
    check_eval(tally, {"dialogues": len(states), "ga": coverage.ga, "smr": coverage.smr,
                       "wer": {g: {"utterances": c.utterances} for g, c in wer.report.items()}}, n, utterances)
    tally.attempted += n + utterances
    tally.failed += wer.failed_files
    return metrics


def traced(wl: Workload, inp: Inputs, seed: int, work: Path, tally: Tally) -> dict:
    tracer, failures = tr.Tracer(), Counter()
    metrics = traced_augment(wl, inp, seed, work, tracer, failures, tally)
    metrics.update(traced_turntaking(wl, inp, tally))
    metrics.update(traced_eval(inp, seed, tracer, failures, tally))
    metrics.update(tr.client_metrics(tracer, failures))
    return metrics


# --- entry point -----------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path = WORK,
        wl: Workload | None = None) -> tuple[dict, list[str]]:
    """One benchmark run; returns (result object, failed checks)."""
    wl = wl or WORKLOADS[workload]
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    root_logger = logging.getLogger()
    handler = _FormatAndDrop()
    root_logger.addHandler(handler)  # the CLI's basicConfig then leaves logging alone
    tally = Tally()
    try:
        inp = make_inputs(wl, seed, work)
        if trace:
            metrics = traced(wl, inp, seed, work, tally)
        else:
            metrics = {"setup_s": (measure_setup(inp), "s")}
            metrics.update(untraced(wl, inp, seed, seconds, work, tally))
    finally:
        root_logger.removeHandler(handler)
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, tally.errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result, errors = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for message in errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
