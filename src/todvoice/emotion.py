"""Emotion labeling: judge-driven annotation plus label inheritance.

Non-segment user turns are classified 0-6 by a judge client; cross-turn
dictation segments inherit the label of the most recent non-segment user turn;
assistant turns are always neutral. Each label's keywords live in
`prompts.KEYWORDS`.
"""

from __future__ import annotations

import logging
import re

from .clients import ChatClient, ClientError
from . import prompts
from .corpus import Dialogue, Emotion, Role, Turn

log = logging.getLogger(__name__)

_DIGIT_RE = re.compile(r"(?<!\d)([0-6])(?!\d)")


def is_segment(t: Turn) -> bool:
    return t.crossturn is not None


def parse_label(reply: str) -> Emotion | None:
    m = _DIGIT_RE.search(reply.strip())
    return Emotion(int(m.group(1))) if m else None


def annotate_turn(ctx: str, t: Turn, judge: ChatClient) -> Emotion:
    """Label one non-segment user turn; malformed output retries once then
    falls back to neutral with a warning. A client failure, already retried
    by the client if it was transient, falls back to neutral at once."""
    if t.role is not Role.USER:
        raise ValueError("emotion annotation applies to user turns only")
    if is_segment(t):
        raise ValueError("cross-turn segments inherit labels; do not annotate them")
    prompt = prompts.emotion_prompt(ctx, t.text)
    for _ in (1, 2):
        try:
            label = parse_label(judge.complete(prompt))
        except ClientError as exc:
            log.warning("emotion judge failed (%s); turn %d defaults to neutral", exc, t.index)
            return Emotion.NEUTRAL
        if label is not None:
            return label
    log.warning("emotion judge gave no usable label for turn %d; defaulting to neutral", t.index)
    return Emotion.NEUTRAL


def inherit_labels(d: Dialogue) -> Dialogue:
    """Propagate labels: segments copy their anchor turn, assistants go neutral.

    A turn whose label is already right is kept as it is."""
    last_user_label = Emotion.NEUTRAL
    out: list[Turn] = []
    for t in d.turns:
        if t.role is Role.ASSISTANT or is_segment(t):
            label = Emotion.NEUTRAL if t.role is Role.ASSISTANT else last_user_label
            out.append(t if t.emotion is label else t.with_(emotion=label))
            continue
        if t.emotion is None:
            log.warning("unlabeled user turn %d in %s; defaulting to neutral", t.index, d.dialogue_id)
            t = t.with_(emotion=Emotion.NEUTRAL)
        last_user_label = t.emotion
        out.append(t)
    return d.with_turns(tuple(out))


def annotate_dialogue(d: Dialogue, judge: ChatClient, skip_labeled: bool = False) -> Dialogue:
    """Annotate every non-segment user turn, then run inheritance.

    With skip_labeled (EmoWOZ-style sources) turns that already carry a label
    keep it and only unlabeled ones are judged.
    """
    turns: list[Turn] = []
    for t in d.turns:
        if (
            t.role is Role.USER
            and not is_segment(t)
            and not (skip_labeled and t.emotion is not None)
        ):
            t = t.with_(emotion=annotate_turn(prompts.context_string(d.turns[: t.index]), t, judge))
        turns.append(t)
    return inherit_labels(d.with_turns(tuple(turns)))
