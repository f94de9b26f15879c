"""Barge-in insertion: sampled user interruptions of in-progress assistant turns.

Candidates are user turns drawn per-turn Bernoulli(sample_rate); each gets a
uniformly drawn (type, style) cell. A judge call filters unnatural fits, a
generator call produces the 3-turn block [truncated assistant, interruption,
recovery], and the block is spliced in front of the original assistant
response, which then resumes the task. Both calls go through `ChatClient.ask`,
so an unusable reply is asked again once, and a candidate without a usable
verdict or block is skipped.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from . import prompts
from .checked import check
from .clients import ChatClient, ReplyRejected
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


def judge_validity(d: Dialogue, candidate: Candidate, context: str, judge: ChatClient) -> bool:
    """The judge's yes or no; False when it gives neither (see `ChatClient.ask`)."""
    prompt = prompts.interruption_validity_prompt(
        candidate.type,
        prompts.transcript(d.turns[candidate.turn_idx : candidate.turn_idx + 2]),
        context,
        d.state_at(candidate.turn_idx),
    )
    what = f"barge-in judge on {d.dialogue_id} turn {candidate.turn_idx} (falls back to skipping the candidate)"
    return bool(judge.ask(prompt, lambda reply: {"y": True, "n": False}.get(reply.strip()[:1].lower()), what))


def _parse_block(reply: str, candidate: Candidate, state: dict[str, str] | None) -> list[Turn]:
    """The block that the generator's JSON reply describes; a reply of any
    other shape, or one that breaks the block contract, is ReplyRejected."""
    try:
        data = json.loads(reply)
    except json.JSONDecodeError as exc:
        raise ReplyRejected(f"unparseable block: {exc}") from exc
    check("reply", data, "dict", ReplyRejected)
    turns = []
    for i, t in enumerate(check("reply.turns", data.get("turns"), "list", ReplyRejected)):
        where = f"reply.turns[{i}]"
        check(where, t, "dict", ReplyRejected)
        turns.append(tuple(check(f"{where}.{key}", t.get(key), "str", ReplyRejected) for key in ("role", "text")))
    erroneous, corrected = (
        check(f"reply.{key}", data.get(key), "dict[str, str] | None", ReplyRejected) or {}
        for key in ("erroneous_slots", "corrected_slots")
    )

    if len(turns) != 3:
        raise ReplyRejected(f"expected 3 turns, got {len(turns)}")
    roles = [r for r, _ in turns]
    if roles != ["assistant", "user", "assistant"]:
        raise ReplyRejected(f"bad role sequence: {roles}")
    if not turns[0][1].endswith(BARGEIN_TOKEN):
        raise ReplyRejected("truncated turn does not end with the truncation token")
    if any(BARGEIN_TOKEN in text for _, text in turns[1:]):
        raise ReplyRejected("truncation token outside the truncated turn")

    if candidate.type is BargeInType.ERROR_RECOVERY:
        if not erroneous or not corrected:
            raise ReplyRejected("error-recovery block missing slot corrections")
        for key, value in corrected.items():
            if state is None or state.get(key) != value:
                raise ReplyRejected(f"corrected value for {key!r} does not match dialogue state")
        try:
            meta = BargeInMeta(candidate.type, candidate.style, erroneous, corrected)
        except CorpusError as exc:
            raise ReplyRejected(str(exc)) from exc
    else:
        meta = BargeInMeta(type=candidate.type, style=candidate.style)

    return [Turn(role=Role(role), text=text, bargein=meta if i < 2 else None) for i, (role, text) in enumerate(turns)]


def generate_insertion(d: Dialogue, candidate: Candidate, context: str, gen: ChatClient) -> list[Turn] | None:
    """The block [truncated assistant, interruption, recovery] for candidate,
    to be inserted after its user turn; None when the generator gives no
    usable block (see `ChatClient.ask`)."""
    state = d.state_at(candidate.turn_idx)
    prompt = prompts.interruption_generation_prompt(
        candidate.type,
        candidate.style,
        prompts.transcript(d.turns[candidate.turn_idx : candidate.turn_idx + 2]),
        context,
        state,
    )
    what = f"barge-in generator on {d.dialogue_id} turn {candidate.turn_idx} (falls back to skipping the candidate)"
    return gen.ask(prompt, lambda reply: _parse_block(reply, candidate, state), what)


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
        block = judge_validity(d, cand, context, judge) and generate_insertion(d, cand, context, gen)
        if not block:
            continue
        edits.append((i + 1, i + 1, block))
        seen += [d.turns[i], *block]
        at = i + 1
    return splice_turns(d, edits)
