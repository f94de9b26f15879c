"""Length-conditioned disfluency injection.

An utterance of L words is selected with probability 1 - b^L, receives one
uniformly drawn disfluency type, and the event lands at a slot-proximate or
uniform word position. FP/DM/EDIT/REP are pure text edits; COR and RST route
through the generator client and are rejected (turn left fluent) when the
client output drops a slot value.
"""

from __future__ import annotations

import logging
import random
import re
from dataclasses import dataclass

from .clients import ChatClient, ClientError
from . import prompts
from .corpus import (
    COR_CONNECTORS, DISFLUENCY_TYPES, DisfluencyMeta, Role, Turn,
    clear_of, locate_slot_spans, shift_ranges, shift_spans,
)

log = logging.getLogger(__name__)

FILLERS = {
    "FP": ("uh", "um"),
    "DM": ("well", "you know", "I mean"),
    "EDIT": ("I mean", "sorry", "rather"),
}

_RULE_TYPES = ("FP", "DM", "EDIT", "REP")


@dataclass(frozen=True)
class DisfluencyConfig:
    b: float = 0.9453
    slot_window_words: int = 2
    p_slot_local: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.b < 1.0:
            raise ValueError("b must be in (0, 1)")


def disfluency_probability(L: int, b: float = 0.9453) -> float:
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


def choose_position(
    t: Turn, dtype: str, cfg: DisfluencyConfig, rng: random.Random
) -> tuple[str, int]:
    """Pick (possibly resampled type, word position) for the event.

    COR demands a slot position; a slotless turn resamples among the other
    five types. Other types go slot-local with probability p_slot_local when
    slots exist, else uniform.
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

    # Insertion-type events must not land strictly inside a slot span:
    # FP/DM/EDIT insert at the word start, REP inserts after the word end.
    def valid(i: int) -> bool:
        ws, we = word_spans[i]
        k = ws if dtype in FILLERS else we
        return not any(s < k < e for _, s, e in t.slot_spans)

    candidates = [i for i in range(n) if valid(i)] or list(range(n))
    if slot_words and rng.random() < cfg.p_slot_local:
        near = [
            i
            for i in candidates
            if min(abs(i - j) for j in slot_words) <= cfg.slot_window_words
        ]
        if near:
            return dtype, rng.choice(near)
    return dtype, rng.choice(candidates)


def relocate_spans(
    new_text: str, spans: tuple[tuple[str, int, int], ...], old_text: str
) -> tuple[tuple[str, int, int], ...]:
    """Re-find span values in rewritten text; values that vanished are dropped."""
    report = locate_slot_spans(new_text, [(name, old_text[s:e]) for name, s, e in spans])
    for name, _ in report.unmatched:
        log.warning("slot %r lost during disfluency rewrite; span dropped", name)
    return report.matched


def _inject_insertion(t: Turn, dtype: str, position: int, rng: random.Random) -> Turn:
    word_spans = _word_char_spans(t.text)
    position = min(position, len(word_spans) - 1)

    if dtype in FILLERS:
        filler = rng.choice(FILLERS[dtype])
        k = word_spans[position][0]
        plain = f"{filler}, "
        inserted_span = f"{filler},"
    else:  # REP
        lo = word_spans[max(0, position - 1)][0]
        hi = word_spans[position][1]
        raw = t.text[lo:hi]
        copy = re.sub(r"[^\w'%]+$", "", raw)
        if not copy:
            copy = raw
        k = lo + len(copy)
        plain = f", {copy}"
        inserted_span = copy

    meta = DisfluencyMeta(type=dtype, position=position, inserted_span=inserted_span, start=k, end=k + len(plain))
    earlier = shift_ranges(t.disfluency, k, k, len(plain))
    return t.with_(
        text=t.text[:k] + plain + t.text[k:],
        slot_spans=shift_spans(t.slot_spans, k, len(plain)),
        disfluency=tuple(sorted((*earlier, meta), key=lambda m: m.start)),
    )


def _inject_cor(t: Turn, position: int, gen: ChatClient) -> Turn:
    if not t.slot_spans:
        log.warning("COR requested on slotless turn %d; left fluent", t.index)
        return t
    ws, we = _word_char_spans(t.text)[position]
    name, s, e = next((sp for sp in t.slot_spans if sp[1] < we and ws < sp[2]), t.slot_spans[0])
    value = t.text[s:e]
    reply = gen.complete(prompts.self_correction_prompt(t.text, name, value)).strip()
    if value not in reply or reply == t.text:
        log.warning("self-correction output missing value %r; turn %d left fluent", value, t.index)
        return t

    # Expected shape: text[:s] + wrong + connector + value + text[e:], so the
    # wrong segment is recovered positionally rather than by pattern.
    wrong = None
    for conn in COR_CONNECTORS:
        idx = reply.find(conn + value, s)
        if idx < 0 or not reply.startswith(t.text[:s]):
            continue
        candidate = reply[s:idx]
        if not candidate or candidate == value:
            continue
        wrong, end = candidate, idx + len(conn)
        break
    if wrong is None:
        log.warning("self-correction output unparseable; turn %d left fluent", t.index)
        return t

    meta = DisfluencyMeta(type="COR", position=position, inserted_span=wrong, original_value=value, start=s, end=end)
    return t.with_(
        text=reply,
        slot_spans=relocate_spans(reply, t.slot_spans, t.text),
        disfluency=(meta,),
    )


def _inject_rst(t: Turn, position: int, gen: ChatClient) -> Turn:
    reply = gen.complete(prompts.restart_prompt(t.text)).strip()
    missing = [t.text[s:e] for _, s, e in t.slot_spans if t.text[s:e] not in reply]
    if missing:
        log.warning("restart output missing values %r; turn %d left fluent", missing, t.index)
        return t
    m = re.search(r"^(.+?(?:\.\.\.|—))\s+(.+)$", reply, flags=re.DOTALL)
    if not m or reply == t.text:
        log.warning("restart output unparseable; turn %d left fluent", t.index)
        return t
    fragment = m.group(1)
    frag_words = len(re.sub(r"(?:\.\.\.|—)$", "", fragment).split())
    if not 2 <= frag_words <= 5:
        log.warning("restart fragment of %d words out of range; turn %d left fluent", frag_words, t.index)
        return t
    meta = DisfluencyMeta(type="RST", position=position, inserted_span=fragment, start=0, end=m.start(2))
    return t.with_(
        text=reply,
        slot_spans=relocate_spans(reply, t.slot_spans, t.text),
        disfluency=(meta,),
    )


def inject(t: Turn, dtype: str, position: int, gen: ChatClient, rng: random.Random) -> Turn:
    """Apply one disfluency event; on client failure the turn stays fluent.
    COR and RST rewrite the whole turn, which the ranges of earlier events
    could not follow, so they leave a disfluent turn as it is."""
    if dtype in _RULE_TYPES:
        return _inject_insertion(t, dtype, position, rng)
    if t.disfluency:
        log.warning("%s requested on disfluent turn %d; left as it is", dtype, t.index)
        return t
    try:
        if dtype == "COR":
            return _inject_cor(t, position, gen)
        return _inject_rst(t, position, gen)
    except ClientError as exc:
        log.warning("generator failure (%s); turn %d left fluent", exc, t.index)
        return t


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
            if drawn is not None:
                dtype, position = choose_position(t, drawn, cfg, rng)
                t = inject(t, dtype, position, gen, rng)
        out.append(t)
    return tuple(out)
