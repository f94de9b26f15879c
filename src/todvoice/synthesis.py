"""Batch speech rendering for finalized dialogues.

Each labeled turn becomes one SynthesisJob: normalized text, an emotion-keyword
style instruction, the role's speaker reference, and a deterministic output
path. Jobs dispatch to a TTS client; failures land in the manifest as
status=failed and the run continues.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .clients import ClientError, TTSClient, wav_duration_s
from .corpus import Dialogue, Emotion, Role, Turn, Violation
from .prompts import KEYWORDS
from .textnorm import normalize_text

log = logging.getLogger(__name__)

AUDIO_SUBDIR = "data/audio"
MIN_TURN_S = 0.3
MAX_TURN_S = 30.0


@dataclass(frozen=True)
class SynthesisJob:
    dialogue_id: str
    turn_index: int
    normalized_text: str
    style_instruction: str
    speaker_ref: str | None
    out_path: str

    def __post_init__(self) -> None:
        if not self.normalized_text.strip():
            raise ValueError("normalized_text must be non-empty")


@dataclass(frozen=True)
class ManifestRow:
    dialogue_id: str
    turn: int
    status: str
    duration_s: float | None = None

    def to_dict(self) -> dict[str, object]:
        return {
            "dialogue_id": self.dialogue_id,
            "turn": self.turn,
            "status": self.status,
            "duration_s": self.duration_s,
        }


def style_instruction(label: Emotion, keyword_map: Mapping[Emotion, Sequence[str]], rng: random.Random) -> str:
    keywords = keyword_map[label]
    return f"Please speak in a {rng.choice(list(keywords))} tone."


def turn_out_path(dialogue_id: str, turn_index: int) -> str:
    return f"{AUDIO_SUBDIR}/{dialogue_id}/turn{turn_index:02d}.wav"


def build_job(d: Dialogue, turn_idx: int, normalized_text: str, rng: random.Random) -> SynthesisJob:
    """The job for turn turn_idx, whose text normalizes to normalized_text."""
    t = d.turns[turn_idx]
    if t.emotion is None:
        raise ValueError(f"turn {turn_idx} is unlabeled; run emotion annotation first")
    speaker = d.user_speaker if t.role is Role.USER else d.assistant_speaker
    return SynthesisJob(
        dialogue_id=d.dialogue_id,
        turn_index=turn_idx,
        normalized_text=normalized_text,
        style_instruction=style_instruction(t.emotion, KEYWORDS, rng),
        speaker_ref=speaker.ref_audio if speaker is not None else None,
        out_path=turn_out_path(d.dialogue_id, turn_idx),
    )


def synthesize(job: SynthesisJob, tts: TTSClient, root: str | Path) -> ManifestRow:
    """Render one job to disk. Retries happen inside the client; a job that
    still fails is recorded as status=failed."""
    target = Path(root) / job.out_path
    try:
        audio, duration = tts.synthesize(
            job.normalized_text, speaker_ref=job.speaker_ref, style=job.style_instruction
        )
    except ClientError as exc:
        log.warning("synthesis failed for %s turn %d: %s", job.dialogue_id, job.turn_index, exc)
        return ManifestRow(job.dialogue_id, job.turn_index, "failed")
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(audio)
    return ManifestRow(job.dialogue_id, job.turn_index, "ok", duration)


def synthesize_dialogue(
    d: Dialogue,
    tts: TTSClient,
    root: str | Path,
    rng: random.Random,
) -> tuple[Dialogue, list[ManifestRow]]:
    rows: list[ManifestRow] = []
    turns: list[Turn] = []
    for t in d.turns:
        text = normalize_text(t.text)
        if not text.strip():
            log.warning("turn %d of %s has no speakable text; skipped", t.index, d.dialogue_id)
            rows.append(ManifestRow(d.dialogue_id, t.index, "failed"))
            turns.append(t)
            continue
        job = build_job(d, t.index, text, rng)
        row = synthesize(job, tts, root)
        rows.append(row)
        if row.status == "ok":
            t = t.with_(audio_ref=job.out_path, duration_s=row.duration_s)
        turns.append(t)
    return d.with_turns(tuple(turns)), rows


@dataclass(frozen=True)
class DurationReport:
    violations: tuple[Violation, ...]
    total_s: float


def verify_durations(d: Dialogue, root: str | Path, lo: float = MIN_TURN_S, hi: float = MAX_TURN_S) -> DurationReport:
    violations: list[Violation] = []
    total = 0.0
    for t in d.turns:
        if t.audio_ref is None:
            continue
        path = Path(root) / t.audio_ref
        if not path.exists():
            violations.append(Violation("audio.missing", f"file {t.audio_ref} not found", t.index))
            continue
        duration = t.duration_s if t.duration_s is not None else wav_duration_s(path.read_bytes())
        total += duration
        if not lo <= duration <= hi:
            violations.append(
                Violation("audio.duration", f"{duration:.2f}s outside [{lo}, {hi}]", t.index)
            )
    return DurationReport(tuple(violations), total)


def write_manifest(rows: Sequence[ManifestRow], path: str | Path) -> None:
    ordered = sorted(rows, key=lambda r: (r.dialogue_id, r.turn))
    with open(path, "w", encoding="utf-8") as fh:
        for row in ordered:
            fh.write(json.dumps(row.to_dict()) + "\n")
