"""Per-turn synthesis, stub rendering, the turn-duration bound, and manifests."""

from __future__ import annotations

import dataclasses
import json

import pytest

from todvoice.clients import StubTTSClient, TTSClient, ClientError, wav_duration_s
from todvoice.corpus import MAX_TURN_S, MIN_TURN_S, Emotion, validate_dialogue
from todvoice.seeding import rng_for
from todvoice.synthesis import (
    ManifestRow,
    style_instruction,
    synthesize_dialogue,
    write_manifest,
)

from conftest import assistant_pool_profiles, make_dialogue, user_pool_profiles


def _labeled_dialogue(dialogue_id="abcd_10083"):
    d = make_dialogue(dialogue_id=dialogue_id)
    user = user_pool_profiles()[0]
    assistant = assistant_pool_profiles()[0]
    return dataclasses.replace(
        d,
        turns=tuple(t.with_(emotion=Emotion.NEUTRAL) for t in d.turns),
        user_speaker=user,
        assistant_speaker=assistant,
    )


class _Recording(TTSClient):
    """The stub TTS, remembering each call's (text, speaker_ref, style)."""

    def __init__(self):
        self.calls = []

    def synthesize(self, text, speaker_ref=None, style=None):
        self.calls.append((text, speaker_ref, style))
        return StubTTSClient().synthesize(text)


class TestJobs:
    def test_out_path_scheme(self, tmp_path):
        d = _labeled_dialogue("abcd_10083")
        out, _ = synthesize_dialogue(d, StubTTSClient(), tmp_path, rng_for(0, "path"))
        assert [t.audio_ref for t in out.turns] == [f"data/audio/abcd_10083/turn{i:02d}.wav" for i in range(4)]

    def test_build_job_uses_role_speaker(self, tmp_path):
        d = _labeled_dialogue()
        tts = _Recording()
        synthesize_dialogue(d, tts, tmp_path, rng_for(0, "j0"))
        refs = [ref for _, ref, _ in tts.calls]
        assert refs == [d.user_speaker.ref_audio, d.assistant_speaker.ref_audio] * 2

    def test_build_job_requires_label(self, tmp_path):
        d = _labeled_dialogue()
        d = dataclasses.replace(d, turns=tuple(t.with_(emotion=None) for t in d.turns))
        with pytest.raises(ValueError):
            synthesize_dialogue(d, StubTTSClient(), tmp_path, rng_for(0, "x"))

    def test_empty_normalized_text_rejected(self, tmp_path):
        d = _labeled_dialogue()
        d = d.with_turns((d.turns[0].with_(text="  ", emotion=None),) + d.turns[1:])
        tts = _Recording()
        out, rows = synthesize_dialogue(d, tts, tmp_path, rng_for(0, "empty"))
        assert rows[0].to_dict() == {"dialogue_id": d.dialogue_id, "turn": 0, "status": "failed", "duration_s": None}
        assert out.turns[0] == d.turns[0]
        assert [r.status for r in rows[1:]] == ["ok"] * 3
        assert len(tts.calls) == 3

    def test_style_instruction_per_turn_follows_the_rng(self, tmp_path):
        d = _labeled_dialogue()
        tts = _Recording()
        synthesize_dialogue(d, tts, tmp_path, rng_for(0, "style"))
        rng = rng_for(0, "style")
        assert [style for _, _, style in tts.calls] == [style_instruction(Emotion.NEUTRAL, rng) for _ in d.turns]


class TestSynthesize:
    def test_stub_duration_formula(self, tmp_path):
        d = _labeled_dialogue("d")
        d = d.with_turns((d.turns[0].with_(text="x" * 50),) + d.turns[1:])
        out, rows = synthesize_dialogue(d, StubTTSClient(), tmp_path, rng_for(0, "dur"))
        assert rows[0].status == "ok"
        assert rows[0].duration_s == pytest.approx(3.0)
        written = tmp_path / "data/audio/d/turn00.wav"
        assert out.turns[0].audio_ref == "data/audio/d/turn00.wav"
        assert wav_duration_s(written.read_bytes()) == pytest.approx(3.0, abs=1e-3)

    def test_failed_job_marked_and_run_continues(self, tmp_path):
        class Broken(TTSClient):
            def synthesize(self, text, speaker_ref=None, style=None):
                raise ClientError("tts down")

        d = _labeled_dialogue()
        out, rows = synthesize_dialogue(d, Broken(), tmp_path, rng_for(0, "fail"))
        assert all(r.status == "failed" for r in rows)
        assert all(t.audio_ref is None for t in out.turns)
        assert not (tmp_path / "data").exists()

    def test_synthesize_dialogue_attaches_audio(self, tmp_path):
        d = _labeled_dialogue()
        out, rows = synthesize_dialogue(d, StubTTSClient(), tmp_path / "r1", rng_for(0, "ok"))
        assert [r.status for r in rows] == ["ok"] * len(d.turns)
        for t in out.turns:
            assert t.audio_ref == f"data/audio/{d.dialogue_id}/turn{t.index:02d}.wav"
            assert t.duration_s is not None
            assert (tmp_path / "r1" / t.audio_ref).exists()
        again, rows_again = synthesize_dialogue(d, StubTTSClient(), tmp_path / "r2", rng_for(0, "ok"))
        assert again == out
        assert [r.to_dict() for r in rows_again] == [r.to_dict() for r in rows]
        for t in out.turns:
            assert (tmp_path / "r2" / t.audio_ref).read_bytes() == (tmp_path / "r1" / t.audio_ref).read_bytes()


class TestDurationBound:
    def test_stub_turns_pass_validation(self, tmp_path):
        d = _labeled_dialogue()
        d = d.with_turns((d.turns[0].with_(text="Huh?"),) + d.turns[1:])
        out, _ = synthesize_dialogue(d, StubTTSClient(), tmp_path, rng_for(0, "v"))
        assert out.turns[0].duration_s == MIN_TURN_S
        assert validate_dialogue(out) == []

    def test_duration_out_of_bounds_flagged(self):
        d = _labeled_dialogue()

        def found(duration):
            turns = (d.turns[0].with_(duration_s=duration),) + d.turns[1:]
            return [(v.rule, v.turn_index) for v in validate_dialogue(d.with_turns(turns))]

        assert found(MIN_TURN_S) == found(MAX_TURN_S) == []
        assert found(0.29) == found(30.01) == [("turn.duration", 0)]


def test_write_manifest_is_ndjson_in_given_order(tmp_path):
    rows = [
        ManifestRow(dialogue_id="b", turn=0, status="ok", duration_s=1.0),
        ManifestRow(dialogue_id="a", turn=1, status="failed"),
        ManifestRow(dialogue_id="a", turn=0, status="ok", duration_s=2.0),
    ]
    path = tmp_path / "manifest.jsonl"
    write_manifest(rows, path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines == [r.to_dict() for r in rows]
    assert lines[1]["status"] == "failed"
