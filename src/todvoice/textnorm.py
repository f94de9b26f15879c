"""Spoken-form text normalization for synthesis.

Covers exactly four rewrite classes: cardinal/ordinal numbers, clock times,
currency amounts, and a fixed abbreviation list. Everything else passes
through verbatim, so the function is idempotent. The truncation token is
metadata, not speech, and is stripped; lexical fillers stay in the text (a
turn's text holds no disfluency marker: the tagged text is derived only when
a corpus is written).
"""

from __future__ import annotations

import re

from .corpus import BARGEIN_TOKEN

_ONES = [
    "zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
    "nine", "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen",
    "sixteen", "seventeen", "eighteen", "nineteen",
]
_TENS = ["", "", "twenty", "thirty", "forty", "fifty", "sixty", "seventy", "eighty", "ninety"]

MAX_SPELLED = 999_999_999

_ORD_IRREGULAR = {
    "one": "first",
    "two": "second",
    "three": "third",
    "five": "fifth",
    "eight": "eighth",
    "nine": "ninth",
    "twelve": "twelfth",
}

ABBREVIATIONS = {
    "Dr.": "doctor",
    "Mr.": "mister",
    "Mrs.": "missus",
    "Ms.": "miss",
    "Ave.": "avenue",
    "Blvd.": "boulevard",
    "dept.": "department",
    "approx.": "approximately",
    "etc.": "et cetera",
    "vs.": "versus",
}

_TIME_RE = re.compile(r"\b(\d{1,2}):(\d{2})\s*([ap])\.?m\.?(?=\W|$)|\b(\d{1,2}):(\d{2})\b", re.IGNORECASE)
_CURRENCY_RE = re.compile(r"([$£])\s?(\d{1,3}(?:,\d{3})+|\d+)(?:\.(\d{2}))?")
_ORDINAL_RE = re.compile(r"\b(\d{1,9})(st|nd|rd|th)\b", re.IGNORECASE)
_CARDINAL_RE = re.compile(r"(?<![\w.:,])(\d{1,3}(?:,\d{3})+|\d+)(?!(?:[.,:]\d|[\w]))")


def _three_digits(n: int) -> str:
    out: list[str] = []
    hundreds, rest = divmod(n, 100)
    if hundreds:
        out.append(f"{_ONES[hundreds]} hundred")
    if rest >= 20:
        tens, ones = divmod(rest, 10)
        out.append(_TENS[tens] + (f" {_ONES[ones]}" if ones else ""))
    elif rest:
        out.append(_ONES[rest])
    return " ".join(out)


def spell_cardinal(n: int) -> str:
    """Spell a non-negative integer up to 999,999,999 without 'and' or hyphens."""
    if not 0 <= n <= MAX_SPELLED:
        raise ValueError(f"cardinal out of range: {n}")
    if n == 0:
        return "zero"
    parts: list[str] = []
    for divisor, unit in ((1_000_000, "million"), (1_000, "thousand")):
        count, n = divmod(n, divisor)
        if count:
            parts.append(f"{_three_digits(count)} {unit}")
    if n:
        parts.append(_three_digits(n))
    return " ".join(parts)


def spell_ordinal(n: int) -> str:
    words = spell_cardinal(n).split()
    last = words[-1]
    if last in _ORD_IRREGULAR:
        words[-1] = _ORD_IRREGULAR[last]
    elif last.endswith("y"):
        words[-1] = last[:-1] + "ieth"
    else:
        words[-1] = last + "th"
    return " ".join(words)


def _spell_minutes(m: int) -> str:
    if m == 0:
        return "o'clock"
    if m < 10:
        return f"oh {_ONES[m]}"
    return spell_cardinal(m)


def _replace_time(match: re.Match[str]) -> str:
    if match.group(1) is not None:
        hour, minute, meridiem = int(match.group(1)), int(match.group(2)), match.group(3).lower() + "m"
    else:
        hour, minute, meridiem = int(match.group(4)), int(match.group(5)), None
    if hour > 23 or minute > 59:
        return match.group(0)
    spoken = f"{spell_cardinal(hour)} {_spell_minutes(minute)}"
    return f"{spoken} {meridiem}" if meridiem else spoken


def _replace_currency(match: re.Match[str]) -> str:
    symbol, whole_str, cents_str = match.group(1), match.group(2), match.group(3)
    whole = int(whole_str.replace(",", ""))
    if whole > MAX_SPELLED:
        return match.group(0)
    major, minor = ("dollar", "cent") if symbol == "$" else ("pound", "penny")
    out = f"{spell_cardinal(whole)} {major}" + ("" if whole == 1 else "s")
    if cents_str is not None:
        cents = int(cents_str)
        if cents == 1:
            out += f" one {minor}"
        elif cents:
            plural = "pence" if minor == "penny" else "cents"
            out += f" {spell_cardinal(cents)} {plural}"
    return out


def _replace_ordinal(match: re.Match[str]) -> str:
    return spell_ordinal(int(match.group(1)))


def _replace_cardinal(match: re.Match[str]) -> str:
    token = match.group(1)
    digits = token.replace(",", "")
    # Leading-zero strings are dictation material (codes, phone digits), not numbers.
    if len(digits) > 1 and digits.startswith("0"):
        return token
    value = int(digits)
    if value > MAX_SPELLED:
        return token
    return spell_cardinal(value)


def normalize_text(text: str) -> str:
    """Rewrite text into its spoken form for synthesis."""
    out = text.replace(BARGEIN_TOKEN, "")
    out = _CURRENCY_RE.sub(_replace_currency, out)
    out = _TIME_RE.sub(_replace_time, out)
    out = _ORDINAL_RE.sub(_replace_ordinal, out)
    out = _CARDINAL_RE.sub(_replace_cardinal, out)
    for short, spoken in ABBREVIATIONS.items():
        out = out.replace(short, spoken)
    out = re.sub(r"  +", " ", out).strip()
    return out
