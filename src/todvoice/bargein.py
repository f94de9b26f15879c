"""Barge-in insertion: sampled user interruptions of in-progress assistant turns.

Candidates are user turns drawn per-turn Bernoulli(sample_rate); each gets a
uniformly drawn (type, style) cell. A judge call filters unnatural fits, a
generator call produces the 3-turn block [truncated assistant, interruption,
recovery], and the block is spliced in front of the original assistant
response, which then resumes the task.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass

from . import prompts
from .checked import check
from .clients import ChatClient, ClientError
from .corpus import (
    BARGEIN_TOKEN,
    BargeInMeta,
    BargeInStyle,
    BargeInType,
    CorpusError,
    Dialogue,
    Role,
    Turn,
    splice_turns,
)

log = logging.getLogger(__name__)


class BlockRejected(ValueError):
    """Generated insertion block violates the format contract."""


@dataclass(frozen=True)
class BargeInConfig:
    sample_rate: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")


@dataclass(frozen=True)
class Candidate:
    turn_idx: int
    type: BargeInType
    style: BargeInStyle


def sample_candidates(d: Dialogue, cfg: BargeInConfig, rng: random.Random) -> list[Candidate]:
    out: list[Candidate] = []
    types = list(BargeInType)
    styles = list(BargeInStyle)
    for t in d.turns:
        # a second block after an interruption would leave three assistant turns in a row
        if t.role is Role.USER and t.bargein is None and rng.random() < cfg.sample_rate:
            out.append(Candidate(t.index, rng.choice(types), rng.choice(styles)))
    return out


def _current_exchange(d: Dialogue, turn_idx: int) -> str:
    lines = [f"user: {d.turns[turn_idx].text}"]
    if turn_idx + 1 < len(d.turns):
        lines.append(f"assistant: {d.turns[turn_idx + 1].text}")
    return "\n".join(lines)


def judge_validity(d: Dialogue, candidate: Candidate, context: str, judge: ChatClient) -> bool:
    prompt = prompts.interruption_validity_prompt(
        candidate.type,
        _current_exchange(d, candidate.turn_idx),
        context,
        d.state_at(candidate.turn_idx),
    )
    return judge.complete(prompt).strip().lower().startswith("y")


def _parse_turns(reply: str) -> tuple[list[tuple[str, str]], dict[str, str], dict[str, str]]:
    """The generator's JSON block: its (role, text) turns, and its erroneous and
    corrected slots ({} when absent). A reply of any other shape is BlockRejected."""
    try:
        data = json.loads(reply)
    except json.JSONDecodeError as exc:
        raise BlockRejected(f"unparseable block: {exc}") from exc
    check("reply", data, "dict", BlockRejected)
    turns = []
    for i, t in enumerate(check("reply.turns", data.get("turns"), "list", BlockRejected)):
        where = f"reply.turns[{i}]"
        check(where, t, "dict", BlockRejected)
        turns.append(tuple(check(f"{where}.{key}", t.get(key), "str", BlockRejected) for key in ("role", "text")))
    erroneous, corrected = (
        check(f"reply.{key}", data.get(key), "dict[str, str] | None", BlockRejected) or {}
        for key in ("erroneous_slots", "corrected_slots")
    )
    return turns, erroneous, corrected


def generate_insertion(d: Dialogue, candidate: Candidate, context: str, gen: ChatClient) -> list[Turn]:
    """The block [truncated assistant, interruption, recovery] for candidate,
    to be inserted after its user turn."""
    state = d.state_at(candidate.turn_idx)
    prompt = prompts.interruption_generation_prompt(
        candidate.type,
        candidate.style,
        _current_exchange(d, candidate.turn_idx),
        context,
        state,
    )
    turns, erroneous, corrected = _parse_turns(gen.complete(prompt))

    if len(turns) != 3:
        raise BlockRejected(f"expected 3 turns, got {len(turns)}")
    roles = [r for r, _ in turns]
    if roles != ["assistant", "user", "assistant"]:
        raise BlockRejected(f"bad role sequence: {roles}")
    if not turns[0][1].endswith(BARGEIN_TOKEN):
        raise BlockRejected("truncated turn does not end with the truncation token")
    if any(BARGEIN_TOKEN in text for _, text in turns[1:]):
        raise BlockRejected("truncation token outside the truncated turn")

    if candidate.type is BargeInType.ERROR_RECOVERY:
        if not erroneous or not corrected:
            raise BlockRejected("error-recovery block missing slot corrections")
        for key, value in corrected.items():
            if state is None or state.get(key) != value:
                raise BlockRejected(f"corrected value for {key!r} does not match dialogue state")
        try:
            meta = BargeInMeta(candidate.type, candidate.style, erroneous, corrected)
        except CorpusError as exc:
            raise BlockRejected(str(exc)) from exc
    else:
        meta = BargeInMeta(type=candidate.type, style=candidate.style)

    return [Turn(role=Role(role), text=text, bargein=meta if i < 2 else None) for i, (role, text) in enumerate(turns)]


def apply_bargein_stage(
    d: Dialogue,
    cfg: BargeInConfig,
    judge: ChatClient,
    gen: ChatClient,
    rng: random.Random,
) -> Dialogue:
    """Sample, judge, generate, and splice; failed candidates are skipped.

    Each candidate's prompts show the dialogue with the blocks accepted before it.
    """
    edits = []
    seen: list[Turn] = []  # the turns before the candidate's, with the blocks so far
    at = 0
    for cand in sample_candidates(d, cfg, rng):
        i = cand.turn_idx
        seen += d.turns[at:i]
        at = i
        context = prompts.context_string(seen) or "(start of dialogue)"
        try:
            if not judge_validity(d, cand, context, judge):
                continue
            block = generate_insertion(d, cand, context, gen)
        except ClientError as exc:
            log.warning("%s: candidate at turn %d skipped (client failure: %s)", d.dialogue_id, i, exc)
            continue
        except BlockRejected as exc:
            log.warning("%s: candidate at turn %d rejected (%s)", d.dialogue_id, i, exc)
            continue
        edits.append((i + 1, i + 1, block))
        seen += [d.turns[i], *block]
        at = i + 1
    return splice_turns(d, edits)
