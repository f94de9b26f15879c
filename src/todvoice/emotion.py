"""Emotion labeling: one walk over a dialogue's turns.

Non-segment user turns are classified 0-6 by a judge client; cross-turn
dictation segments inherit the label of the most recent non-segment user turn;
assistant turns are always neutral. Each label's keywords live in
`prompts.KEYWORDS`.
"""

from __future__ import annotations

import re

from .clients import ChatClient
from . import prompts
from .corpus import Dialogue, Emotion, Role

_DIGIT_RE = re.compile(r"(?<!\d)([0-6])(?!\d)")


def parse_label(reply: str) -> Emotion | None:
    m = _DIGIT_RE.search(reply.strip())
    return Emotion(int(m.group(1))) if m else None


def annotate_dialogue(d: Dialogue, judge: ChatClient, skip_labeled: bool = False) -> Dialogue:
    """Label every turn in one walk; a turn whose label is already right is kept as it is.

    Assistant turns are neutral. A dictation segment takes the label of the last
    non-segment user turn (neutral before the first). Any other user turn is
    judged with the turns before it as context, and is neutral if the judge gives
    no usable label. With skip_labeled (EmoWOZ-style sources) a user turn that
    already carries a label keeps it.
    """
    anchor = Emotion.NEUTRAL
    turns = []
    for i, t in enumerate(d.turns):
        if t.role is Role.ASSISTANT:
            label = Emotion.NEUTRAL
        elif t.crossturn is not None:
            label = anchor
        elif skip_labeled and t.emotion is not None:
            label = anchor = t.emotion
        else:
            prompt = prompts.emotion_prompt(prompts.context_string(d.turns[:i]), t.text)
            what = f"emotion judge on {d.dialogue_id} turn {i} (falls back to neutral)"
            label = anchor = judge.ask(prompt, parse_label, what) or Emotion.NEUTRAL
        turns.append(t if t.emotion is label else t.with_(emotion=label))
    return d.with_turns(turns)
