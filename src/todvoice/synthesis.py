"""Batch speech rendering for finalized dialogues.

Each labeled turn's normalized text goes to a TTS client with an
emotion-keyword style instruction and the role's speaker reference, and is
written to a deterministic path. Failures land in the manifest as
status=failed and the run continues.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .clients import ClientError, TTSClient
from .corpus import Dialogue, Emotion, Role, Turn
from .prompts import KEYWORDS
from .textnorm import normalize_text

log = logging.getLogger(__name__)

AUDIO_SUBDIR = "data/audio"


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


def style_instruction(label: Emotion, rng: random.Random) -> str:
    return f"Please speak in a {rng.choice(list(KEYWORDS[label]))} tone."


def synthesize_dialogue(
    d: Dialogue,
    tts: TTSClient,
    root: str | Path,
    rng: random.Random,
) -> tuple[Dialogue, list[ManifestRow]]:
    """Render each turn of d to a WAV under root; d with its audio attached, and
    one manifest row per turn. Retries happen inside the client; a turn with no
    speakable text, or whose call still fails, is recorded as status=failed."""
    rows: list[ManifestRow] = []
    turns: list[Turn] = []
    for t in d.turns:
        text = normalize_text(t.text)
        row = ManifestRow(d.dialogue_id, t.index, "failed")
        if not text.strip():
            log.warning("turn %d of %s has no speakable text; skipped", t.index, d.dialogue_id)
        elif t.emotion is None:
            raise ValueError(f"turn {t.index} is unlabeled; run emotion annotation first")
        else:
            speaker = d.user_speaker if t.role is Role.USER else d.assistant_speaker
            try:
                audio, duration = tts.synthesize(
                    text,
                    speaker_ref=speaker.ref_audio if speaker is not None else None,
                    style=style_instruction(t.emotion, rng),
                )
            except ClientError as exc:
                log.warning("synthesis failed for %s turn %d: %s", d.dialogue_id, t.index, exc)
            else:
                out_path = f"{AUDIO_SUBDIR}/{d.dialogue_id}/turn{t.index:02d}.wav"
                target = Path(root) / out_path
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(audio)
                row = ManifestRow(d.dialogue_id, t.index, "ok", duration)
                t = t.with_(audio_ref=out_path, duration_s=duration)
        rows.append(row)
        turns.append(t)
    return d.with_turns(tuple(turns)), rows


def write_manifest(rows: Sequence[ManifestRow], path: str | Path) -> None:
    ordered = sorted(rows, key=lambda r: (r.dialogue_id, r.turn))
    with open(path, "w", encoding="utf-8") as fh:
        for row in ordered:
            fh.write(json.dumps(row.to_dict()) + "\n")
