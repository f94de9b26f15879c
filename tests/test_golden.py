"""Golden identity: a stub `augment` run on a fixed corpus yields pinned bytes.

tests/data/golden_corpus.jsonl holds 26 `bench/gen.py` corpus dialogues with
per-turn belief states and 4 pre-augmented dialogues. It was written once,
from the repository root, with

    PYTHONPATH=bench python -c "import gen, pathlib; gen.write_ndjson(
        gen.corpus_records(3, 26, prefix='gold') + gen.augmented_records(3, 4),
        pathlib.Path('tests/data/golden_corpus.jsonl'))"

GOLDEN_DIGEST is the sha256 of the output corpus, the synthesis manifest,
quarantine.jsonl and every WAV (in path order). A refactor must leave it
unchanged; a change that means to alter stub output updates it and says why.
The output corpus must also load and save again to the same bytes, so what
the writer derives (correction pointers) the reader accepts.

GOLDEN_PROMPT_DIGEST is the sha256 of every chat prompt of the run at workers
1, in call order. The stub ignores most of what a prompt says (the barge-in
context window, for one), so a refactor can change what a live service would
be asked and still leave GOLDEN_DIGEST as it is; this digest catches that.

Before the WAVs are deleted, `eval-dialogue --wer-sample <all> --similarity`
runs on the output (stub ASR at the default corruption of 0). EVAL_DIGEST is
the sha256 of its stdout, and EVAL_PROMPT_DIGEST that of the coverage-judge
prompts it sends, in call order.

TURNTAKING_DIGEST is the sha256 of the `eval-turn-taking` stdout for each of
the five strategies, then of the `sweep_thresholds` rows (as JSON) for each
thresholded strategy on a grid that holds its defaults. The streams are
seeded and mix simplex frames with dyadic ones whose window sums land exactly
on the grid's thresholds, so a change to how scores are summed or compared
shows here.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import assistant_pool_profiles, mixed_streams, user_pool_profiles, write_speaker_manifest
from todvoice.cli import main
from todvoice.clients import StubChatClient
from todvoice.corpus import load_corpus, save_corpus, validate_dialogue
from todvoice.turntaking import DEFAULT_THRESHOLDS, STRATEGY_NAMES, sweep_thresholds

GOLDEN_CORPUS = Path(__file__).parent / "data" / "golden_corpus.jsonl"
GOLDEN_DIGEST = "b20bb31607fceaf70404502153ac8a3e82af6f3302b795442a8ef11e92006510"
GOLDEN_PROMPT_COUNT = 380
GOLDEN_PROMPT_DIGEST = "067f904f1d8bcd26c55ae9d83039486855dc5dd8456b8c60fb9652618acead4e"
EVAL_DIGEST = "62fdc16d18b7bbf6d10c1a200cdaa1e43e8addd0409e4f5d5dede25ae11d1d00"
EVAL_PROMPT_COUNT = 347
EVAL_PROMPT_DIGEST = "14f3a65c6bc9eb2d43090b8f76f5b4498fab6d71b42acb086251990f40fdcecb"
TURNTAKING_DIGEST = "00f91364a5f696735c98cc3ca1c3a8b2463ce263083e21200eb574855ac32d52"


def _run_digest(tmp_path: Path, workers: int) -> tuple[str, str]:
    """(sha256 of the augment output, sha256 of the eval-dialogue stdout on it)."""
    user_m, asst_m = tmp_path / "speakers.json", tmp_path / "assistants.json"
    write_speaker_manifest(user_pool_profiles(), user_m)
    write_speaker_manifest(assistant_pool_profiles(), asst_m)
    out, audio = tmp_path / "out.jsonl", tmp_path / "audio"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"speaker_manifest": str(user_m), "assistant_manifest": str(asst_m), "out_dir": str(audio)}))
    result = CliRunner().invoke(main, [
        "--config", str(cfg), "--seed", "7", "augment", str(GOLDEN_CORPUS), str(out),
        "--out-dir", str(audio), "--workers", str(workers),
    ])
    assert result.exit_code == 0, result.output
    h = hashlib.sha256()
    files = [out, audio / "synthesis_manifest.jsonl", audio / "quarantine.jsonl"]
    for p in files + sorted(audio.rglob("*.wav")):
        h.update(p.read_bytes())
    again = tmp_path / "again.jsonl"
    save_corpus(load_corpus(out), again)
    assert again.read_bytes() == out.read_bytes()
    every = str(len(out.read_text(encoding="utf-8").splitlines()))
    evaluated = CliRunner().invoke(main, [
        "--config", str(cfg), "eval-dialogue", str(out), "--wer-sample", every, "--similarity",
    ])
    assert evaluated.exit_code == 0, evaluated.output
    shutil.rmtree(audio)  # about 90 MB of WAVs per run
    return h.hexdigest(), hashlib.sha256(evaluated.stdout.encode()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
def test_stub_augment_output_matches_golden_digest(tmp_path, workers):
    assert _run_digest(tmp_path, workers) == (GOLDEN_DIGEST, EVAL_DIGEST)


def test_stub_augment_prompts_match_golden_digest(tmp_path, monkeypatch):
    prompts: list[str] = []
    chat = StubChatClient.chat

    def recording_chat(self, messages):
        prompts.append(json.dumps(list(messages), sort_keys=True))
        return chat(self, messages)

    monkeypatch.setattr(StubChatClient, "chat", recording_chat)
    assert _run_digest(tmp_path, 1) == (GOLDEN_DIGEST, EVAL_DIGEST)
    augment, evaluate = prompts[:GOLDEN_PROMPT_COUNT], prompts[GOLDEN_PROMPT_COUNT:]
    digest = hashlib.sha256("\n".join(augment).encode()).hexdigest()
    assert (len(augment), digest) == (GOLDEN_PROMPT_COUNT, GOLDEN_PROMPT_DIGEST)
    digest = hashlib.sha256("\n".join(evaluate).encode()).hexdigest()
    assert (len(evaluate), digest) == (EVAL_PROMPT_COUNT, EVAL_PROMPT_DIGEST)


def _augment(tmp_path: Path, src: Path, name: str, seed: int, workers: int) -> Path:
    """Stub `augment --no-synthesis` of src; asserts that nothing is quarantined."""
    out, run_dir = tmp_path / f"{name}.jsonl", tmp_path / name
    result = CliRunner().invoke(main, [
        "--seed", str(seed), "augment", str(src), str(out), "--out-dir", str(run_dir),
        "--workers", str(workers), "--no-synthesis",
    ])
    assert result.exit_code == 0, result.output
    assert (run_dir / "quarantine.jsonl").read_text(encoding="utf-8") == "", name
    return out


def test_augmented_output_augments_again_without_quarantine(tmp_path):
    """Augmenting the golden corpus and then its output, with another seed,
    quarantines nothing: no stage breaks what an earlier pass wrote. No turn
    an edit changed keeps the audio path of its old text."""
    spoken = {t.audio_ref: t.text for d in load_corpus(GOLDEN_CORPUS) for t in d.turns if t.audio_ref}
    outputs = []
    for workers in (1, 2):
        once = _augment(tmp_path, GOLDEN_CORPUS, f"once-{workers}", 7, workers)
        stale = [(d.dialogue_id, t.index) for d in load_corpus(once) for t in d.turns
                 if t.audio_ref in spoken and spoken[t.audio_ref] != t.text]
        assert stale == []
        twice = _augment(tmp_path, once, f"twice-{workers}", 8, workers)
        dialogues = load_corpus(twice)
        assert len(dialogues) == len(load_corpus(GOLDEN_CORPUS))
        assert all(validate_dialogue(d) == [] for d in dialogues)
        again = tmp_path / f"again-{workers}.jsonl"
        save_corpus(dialogues, again)
        assert again.read_bytes() == twice.read_bytes()
        outputs.append((once.read_bytes(), twice.read_bytes()))
    assert outputs[0] == outputs[1]


def test_turn_taking_output_matches_golden_digest(tmp_path):
    streams = mixed_streams(random.Random(20261020), 300, 40)
    path = tmp_path / "streams.jsonl"
    path.write_text("".join(
        json.dumps({"stream_id": f"s{k}", "t": t, "truth": truth, "p_listen": f.p_listen,
                    "p_turnend": f.p_turnend, "p_bargein": f.p_bargein}) + "\n"
        for k, (frames, truth) in enumerate(streams) for t, f in enumerate(frames)), encoding="utf-8")
    h = hashlib.sha256()
    for name in STRATEGY_NAMES:
        result = CliRunner().invoke(main, ["eval-turn-taking", str(path), "--strategy", name])
        assert result.exit_code == 0, result.output
        h.update(result.stdout.encode())
    for name, (te, bi) in DEFAULT_THRESHOLDS.items():
        te_values = sorted({te * f for f in (0.5, 1.0, 2.0)} | {1.0, 2.0, 3.0, 5.0})
        bi_values = sorted({bi * f for f in (0.5, 1.0, 2.0)} | {0.25, 0.5, 1.0})
        h.update(json.dumps(sweep_thresholds(streams, name, te_values, bi_values)).encode())
    assert h.hexdigest() == TURNTAKING_DIGEST
