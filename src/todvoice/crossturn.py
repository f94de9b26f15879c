"""Cross-turn slot segmentation: long alphanumeric values become dictated chunks.

A segmentable value (phone number, email, booking code) is split into short
chunks; the user dictates one chunk per turn and the assistant confirms each.
With probability p_error exactly one chunk is mis-spoken and immediately
corrected in the following user turn, so the corrected chunk sequence always
reconstructs the gold value.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .corpus import CrossTurnMeta, Dialogue, Role, Turn, corrections, edit_text, splice_turns

_DIGIT_WORDS = ["zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine"]

MIN_DIGITS = 7  # a value with this many digits or more is dictated
MIN_CODE_LEN = 5  # so is an unspaced letter-digit code this long; its digit runs this long are split


@dataclass(frozen=True)
class CrossTurnConfig:
    p_error: float = 0.20

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_error <= 1.0:
            raise ValueError("p_error must be in [0, 1]")


def is_segmentable(slot_value: str) -> bool:
    if "@" in slot_value or sum(ch.isdigit() for ch in slot_value) >= MIN_DIGITS:
        return True
    return (
        len(slot_value) >= MIN_CODE_LEN
        and not re.search(r"\s", slot_value)
        and any(ch.isalpha() for ch in slot_value)
        and any(ch.isdigit() for ch in slot_value)
    )


def _split_digits(digits: str) -> list[str]:
    """Split a digit string into 3-chunks; remainders fold into 4-chunks."""
    n = len(digits)
    if n <= 4:
        return [digits]
    rem = n % 3
    if rem == 0:
        sizes = [3] * (n // 3)
    elif rem == 1:
        sizes = [3] * (n // 3 - 1) + [4]
    elif n == 5:
        sizes = [3, 2]
    else:
        sizes = [3] * ((n - 8) // 3) + [4, 4]
    out, at = [], 0
    for size in sizes:
        out.append(digits[at : at + size])
        at += size
    return out


def _vocalize_dots(part: str) -> str:
    return part.replace(".", " dot ").replace("  ", " ").strip()


def segment_value(slot_value: str) -> list[str]:
    if not is_segmentable(slot_value):
        raise ValueError(f"value is not segmentable: {slot_value!r}")
    if "@" in slot_value:
        local, domain = slot_value.split("@", 1)
        return [_vocalize_dots(local), "at " + _vocalize_dots(domain)]
    if not re.search(r"\s", slot_value) and any(ch.isalpha() for ch in slot_value):
        chunks: list[str] = []
        for run in re.findall(r"[A-Za-z]+|\d+", slot_value):
            if run.isdigit() and len(run) >= MIN_CODE_LEN:
                chunks.extend(_split_digits(run))
            else:
                chunks.append(run)
        return chunks
    return _split_digits("".join(ch for ch in slot_value if ch.isdigit()))


def render_dictation(chunk: str) -> str:
    """Spoken form of one chunk: digits word-by-word, letter codes letter-by-letter."""
    if chunk.isdigit():
        return " ".join(_DIGIT_WORDS[int(ch)] for ch in chunk)
    if chunk.isalpha() and chunk.isupper():
        return " ".join(chunk)
    return chunk


def corrupt_chunk(chunk: str, rng: random.Random) -> str:
    """Substitute one character within its class (digit->digit, letter->letter)."""
    positions = [i for i, ch in enumerate(chunk) if ch.isalnum()]
    if not positions:
        return chunk
    i = rng.choice(positions)
    ch = chunk[i]
    if ch.isdigit():
        repl = str((int(ch) + 1 + rng.randrange(9)) % 10)  # an offset of 1-9, so never ch
    else:
        alphabet = "abcdefghijklmnopqrstuvwxyz"
        pool = [c for c in alphabet if c != ch.lower()]
        repl = rng.choice(pool)
        if ch.isupper():
            repl = repl.upper()
    return chunk[:i] + repl + chunk[i + 1 :]


def dictation_block(
    turn: Turn,
    slot: str,
    chunks: list[str],
    rng: random.Random,
    cfg: CrossTurnConfig = CrossTurnConfig(),
) -> list[Turn]:
    """Rewrite one user turn into a chunk-dictation exchange, to be spliced in
    its place; a mis-spoken chunk is corrected in the next user turn."""
    span = next(((s, e) for name, s, e in turn.slot_spans if name == slot), None)
    if turn.role is not Role.USER or span is None:
        raise ValueError(f"turn {turn.index} has no user slot span for {slot!r}")
    start, end = span

    error_at = rng.randrange(len(chunks)) if rng.random() < cfg.p_error else None
    spoken = list(chunks)
    if error_at is not None:
        spoken[error_at] = corrupt_chunk(chunks[error_at], rng)

    block: list[Turn] = []

    def add(role: Role, text: str, meta: CrossTurnMeta) -> None:
        block.append(Turn(role=role, text=text, crossturn=meta))

    for i, chunk in enumerate(spoken):
        dictated = render_dictation(chunk)
        meta = CrossTurnMeta(slot_name=slot, chunk_index=i, chunk_text=chunk, is_error=(i == error_at))
        if i == 0:
            block.append(edit_text(turn, start, end, dictated, crossturn=meta))
        else:
            add(Role.USER, f"Then {dictated}.", meta)
        add(Role.ASSISTANT, f"Got it, {dictated}.", meta)
        if i == error_at:
            fix = render_dictation(chunks[i])
            fix_meta = CrossTurnMeta(slot_name=slot, chunk_index=i, chunk_text=chunks[i], is_error=False)
            add(Role.USER, f"Wait, I meant {fix}.", fix_meta)
            add(Role.ASSISTANT, f"Got it, {fix}.", fix_meta)
    return block


def reconstruct_value(d: Dialogue, slot: str) -> list[str]:
    """The value of each dictation block of slot, in dialogue order, rebuilt
    from its user chunks; a correction replaces the chunk it corrects. Each
    block is one run of turns from chunk 0, so a chunk 0 that is not a
    correction opens the next block."""
    fixes = set(corrections(d.turns).values())
    blocks: list[dict[int, str]] = []
    for i, t in enumerate(d.turns):
        m = t.crossturn
        if m is None or m.slot_name != slot or t.role is not Role.USER:
            continue
        if not blocks or (m.chunk_index == 0 and i not in fixes):
            blocks.append({})
        blocks[-1][m.chunk_index] = m.chunk_text
    values = []
    for by_chunk in blocks:
        first, *rest = [by_chunk[k] for k in sorted(by_chunk)]
        if len(rest) == 1 and rest[0].startswith("at "):  # an email: local part, "at" domain
            values.append(f"{first}@{rest[0][3:]}".replace(" dot ", "."))
        else:
            values.append(first + "".join(rest))
    return values


def segmentable_slots(turn: Turn) -> list[tuple[str, str]]:
    """(slot, value) pairs in span order whose values qualify for segmentation."""
    out = []
    for name, s, e in sorted(turn.slot_spans, key=lambda sp: sp[1]):
        value = turn.text[s:e]
        if is_segmentable(value):
            out.append((name, value))
    return out


def apply_crossturn_stage(
    d: Dialogue, cfg: CrossTurnConfig, rng: random.Random
) -> Dialogue:
    """Expand the leftmost segmentable slot of each eligible user turn.

    The block's final confirmation is folded into the assistant turn that
    originally followed, keeping roles strictly alternating.
    """
    edits = []
    for i, t in enumerate(d.turns):
        if t.role is not Role.USER or t.crossturn is not None:
            continue
        slots = segmentable_slots(t)
        if not slots:
            continue
        name, value = slots[0]
        chunks = segment_value(value)
        if len(chunks) < 2:
            continue
        block = dictation_block(t, name, chunks, rng, cfg)
        nxt = d.turns[i + 1] if i + 1 < len(d.turns) else None
        if nxt is None or nxt.role is not Role.ASSISTANT:
            edits.append((i, i + 1, block))
            continue
        conf = block.pop()
        block.append(edit_text(nxt, 0, 0, f"{conf.text} ", crossturn=conf.crossturn))
        edits.append((i, i + 2, block))
    return splice_turns(d, edits)
