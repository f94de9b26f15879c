"""Length-conditioned disfluency injection.

An utterance of L words is selected with probability 1 - b^L, receives one
uniformly drawn disfluency type, and the event lands at a slot-proximate or
uniform word position. Every event inserts one piece into the unchanged
text; COR and RST take theirs from the generator client through
`ChatClient.ask`, and a turn without a usable reply stays fluent, as does a
turn with no word at which the event could land outside every slot value.
"""

from __future__ import annotations

import logging
import random
import re
from dataclasses import dataclass

from .clients import ChatClient
from . import prompts
from .corpus import (
    COR_CONNECTORS, DISFLUENCY_TYPES, DisfluencyMeta, Role, Turn,
    clear_of, edit_text,
)

log = logging.getLogger(__name__)

FILLERS = {
    "FP": ("uh", "um"),
    "DM": ("well", "you know", "I mean"),
    "EDIT": ("I mean", "sorry", "rather"),
}

_RULE_TYPES = ("FP", "DM", "EDIT", "REP")

# With probability P_SLOT_LOCAL an event lands within SLOT_WINDOW_WORDS words of a slot.
P_SLOT_LOCAL = 0.5
SLOT_WINDOW_WORDS = 2


@dataclass(frozen=True)
class DisfluencyConfig:
    b: float = 0.9453

    def __post_init__(self) -> None:
        if not 0.0 < self.b < 1.0:
            raise ValueError("b must be in (0, 1)")


def disfluency_probability(L: int, b: float) -> float:
    """P(disfluent | L words) = 1 - b^L."""
    if L < 0:
        raise ValueError("word count must be non-negative")
    return 1.0 - b**L


def sample_and_type(t: Turn, cfg: DisfluencyConfig, rng: random.Random) -> str | None:
    if t.role is not Role.USER:
        return None
    L = len(t.text.split())
    if rng.random() < disfluency_probability(L, cfg.b):
        return rng.choice(DISFLUENCY_TYPES)
    return None


def _word_char_spans(text: str) -> list[tuple[int, int]]:
    return [(m.start(), m.end()) for m in re.finditer(r"\S+", text)]


def _landing(text: str, word_spans: list[tuple[int, int]], dtype: str, i: int) -> tuple[int, int]:
    """(start, end) of the words i-1..i, less trailing punctuation, that an
    event at word i repeats and lands after; a filler repeats none."""
    if dtype in FILLERS:
        return word_spans[i][0], word_spans[i][0]
    lo, hi = word_spans[max(0, i - 1)][0], word_spans[i][1]
    copy = re.sub(r"[^\w'%]+$", "", text[lo:hi])
    return lo, lo + (len(copy) or hi - lo)


def choose_position(t: Turn, dtype: str, rng: random.Random) -> tuple[str, int] | None:
    """Pick (possibly resampled type, word position) for the event, or None
    when no word gives it a landing point outside every slot span.

    COR demands a slot position; a slotless turn resamples among the other
    five types. Other types go slot-local with probability P_SLOT_LOCAL when
    slots exist, else uniform, at a word whose landing point is not strictly
    inside a slot span (RST, which lands at 0, draws its position as REP does).
    """
    word_spans = _word_char_spans(t.text)
    n = len(word_spans)
    if n == 0:
        raise ValueError("cannot position a disfluency in an empty turn")
    slot_words = [i for i, (ws, we) in enumerate(word_spans) if not clear_of(t.slot_spans, ws, we)]

    if dtype == "COR":
        if not slot_words:
            dtype = rng.choice([x for x in DISFLUENCY_TYPES if x != "COR"])
            log.debug("COR drawn for slotless turn %d; resampled to %s", t.index, dtype)
        else:
            return "COR", rng.choice(slot_words)

    def valid(i: int) -> bool:
        k = _landing(t.text, word_spans, dtype, i)[1]
        return not any(s < k < e for _, s, e in t.slot_spans)

    candidates = [i for i in range(n) if valid(i)]
    if not candidates:
        return None
    if slot_words and rng.random() < P_SLOT_LOCAL:
        near = [i for i in candidates if min(abs(i - j) for j in slot_words) <= SLOT_WINDOW_WORDS]
        if near:
            return dtype, rng.choice(near)
    return dtype, rng.choice(candidates)


def _insert(
    t: Turn, dtype: str, position: int, at: int, piece: str, inserted_span: str, original_value: str | None = None
) -> Turn:
    """t with piece inserted at character `at` as one event whose range is the
    piece; the slot spans and earlier ranges at or after `at` move past it."""
    meta = DisfluencyMeta(dtype, position, inserted_span, original_value, at, at + len(piece))
    t = edit_text(t, at, at, piece)
    return t.with_(disfluency=tuple(sorted((*t.disfluency, meta), key=lambda m: m.start)))


def _inject_rule(t: Turn, dtype: str, position: int, rng: random.Random) -> Turn:
    lo, at = _landing(t.text, _word_char_spans(t.text), dtype, position)
    if dtype in FILLERS:
        filler = rng.choice(FILLERS[dtype])
        return _insert(t, dtype, position, at, f"{filler}, ", f"{filler},")
    return _insert(t, dtype, position, at, f", {t.text[lo:at]}", t.text[lo:at])


def _inject_cor(t: Turn, position: int, gen: ChatClient) -> Turn:
    """The reply must be the text with a wrong value and connector before the slot value."""
    ws, we = _word_char_spans(t.text)[position]
    name, s, e = next((sp for sp in t.slot_spans if sp[1] < we and ws < sp[2]), t.slot_spans[0])
    value = t.text[s:e]

    def parse(reply: str) -> Turn | None:
        reply = reply.strip()
        piece = reply[s : s + len(reply) - len(t.text)]
        if piece and reply == t.text[:s] + piece + t.text[s:]:
            for conn in COR_CONNECTORS:
                wrong = piece[: -len(conn)]
                if piece.endswith(conn) and wrong and wrong != value:
                    return _insert(t, "COR", position, s, piece, wrong, value)
        return None

    what = f"self-correction generator on turn {t.index} (falls back to a fluent turn)"
    return gen.ask(prompts.self_correction_prompt(t.text, name, value), parse, what) or t


# An RST reply's prefix: the fragment, its pause, and the gap before the text.
_RESTART = re.compile(r"((.+?)(?:\.\.\.|—))\s+", flags=re.DOTALL)


def _inject_rst(t: Turn, position: int, gen: ChatClient) -> Turn:
    """The reply must be a fragment of 2-5 words, its pause and a gap, then the text."""

    def parse(reply: str) -> Turn | None:
        reply = reply.strip()
        m = _RESTART.fullmatch(reply, 0, len(reply) - len(t.text)) if reply.endswith(t.text) else None
        return _insert(t, "RST", position, 0, m[0], m[1]) if m and 2 <= len(m[2].split()) <= 5 else None

    what = f"restart generator on turn {t.index} (falls back to a fluent turn)"
    return gen.ask(prompts.restart_prompt(t.text), parse, what) or t


def inject(t: Turn, dtype: str, position: int, gen: ChatClient, rng: random.Random) -> Turn:
    """Apply one disfluency event at a word position from choose_position: one
    piece inserted into the unchanged text. Without a usable COR or RST reply
    (see `ChatClient.ask`) the turn stays fluent."""
    if dtype in _RULE_TYPES:
        return _inject_rule(t, dtype, position, rng)
    return (_inject_cor if dtype == "COR" else _inject_rst)(t, position, gen)


def apply_disfluency_stage(
    d_turns: tuple[Turn, ...],
    cfg: DisfluencyConfig,
    gen: ChatClient,
    rng: random.Random,
) -> tuple[Turn, ...]:
    """One pass over a dialogue's turns; at most one event per selected turn."""
    out: list[Turn] = []
    for t in d_turns:
        if t.role is Role.USER and t.text.strip() and not t.disfluency:
            drawn = sample_and_type(t, cfg, rng)
            chosen = choose_position(t, drawn, rng) if drawn else None
            if chosen is not None:
                t = inject(t, *chosen, gen, rng)
        out.append(t)
    return tuple(out)
