"""Dialogue data model: goals, turns, spoken-behavior metadata, validation, JSON I/O.

A dialogue is a finalized, strictly-alternating sequence of user/assistant
turns. Spoken-behavior augmentations (cross-turn dictation, barge-ins,
disfluencies, emotion labels) attach as per-turn metadata rather than
restructuring the schema, so every downstream consumer can ignore the ones
it does not care about. The belief state a source records after a turn lives
on that turn too, so an edit that moves turns moves their states with them.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass, field, fields, replace
from enum import Enum, IntEnum
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .checked import build, check, dump, must, parse_json

BARGEIN_TOKEN = "<bargein>"

DISFLUENCY_TYPES = ("FP", "DM", "EDIT", "REP", "COR", "RST")

# Every rendered turn lasts this long, in seconds, or validate_dialogue flags it.
MIN_TURN_S = 0.3
MAX_TURN_S = 30.0


class Role(str, Enum):
    USER = "user"
    ASSISTANT = "assistant"


class Emotion(IntEnum):
    """Seven-way emotion label; integer ids are part of the on-disk format."""

    NEUTRAL = 0
    FEARFUL = 1
    DISSATISFIED = 2
    APOLOGETIC = 3
    ABUSIVE = 4
    EXCITED = 5
    SATISFIED = 6

    @property
    def label_name(self) -> str:
        return self.name.lower()


class BargeInType(str, Enum):
    ERROR_RECOVERY = "error_recovery"
    CLARIFICATION = "clarification"
    EFFICIENCY = "efficiency"


class BargeInStyle(str, Enum):
    IMPLICIT = "implicit"
    RAW = "raw"
    INTERPRETED = "interpreted"


# On-disk subtype tags, e.g. "INCOHERENT_RAW" for an error-recovery barge-in
# with a raw-style interruption.
_TYPE_TAG = {
    BargeInType.ERROR_RECOVERY: "INCOHERENT",
    BargeInType.CLARIFICATION: "FAIL",
    BargeInType.EFFICIENCY: "REF",
}
_STYLE_TAG = {
    BargeInStyle.IMPLICIT: "IMPL",
    BargeInStyle.RAW: "RAW",
    BargeInStyle.INTERPRETED: "INTERP",
}
_TAG_TYPE = {v: k for k, v in _TYPE_TAG.items()}
_TAG_STYLE = {v: k for k, v in _STYLE_TAG.items()}


class CorpusError(Exception):
    """Structural error in corpus data."""


@dataclass(frozen=True)
class SubGoal:
    domain: str
    intent: str
    constraints: dict[str, str] = field(default_factory=dict)
    requests: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "requests", frozenset(self.requests))
        overlap = set(self.constraints) & self.requests
        if overlap:
            raise CorpusError(f"slots in both constraints and requests: {sorted(overlap)}")
        for name in list(self.constraints) + list(self.requests):
            if not name:
                raise CorpusError("empty slot name in sub-goal")


@dataclass(frozen=True)
class Goal:
    text: str
    sub_goals: tuple[SubGoal, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sub_goals", tuple(self.sub_goals))
        if not self.sub_goals:
            raise CorpusError("goal must contain at least one sub-goal")


@dataclass(frozen=True)
class CrossTurnMeta:
    """Marks a turn as part of a segmented-dictation exchange; which turn
    corrects an erroneous chunk follows from the turns (see corrections)."""

    slot_name: str
    chunk_index: int
    chunk_text: str
    is_error: bool = False


@dataclass(frozen=True)
class BargeInMeta:
    type: BargeInType
    style: BargeInStyle
    erroneous_slots: dict[str, str] | None = None
    corrected_slots: dict[str, str] | None = None

    def __post_init__(self) -> None:
        if self.type is BargeInType.ERROR_RECOVERY:
            if self.erroneous_slots is None or self.corrected_slots is None:
                raise CorpusError("error-recovery barge-in requires erroneous and corrected slots")
            if set(self.erroneous_slots) != set(self.corrected_slots):
                raise CorpusError("erroneous and corrected slot keys must match")
        elif self.erroneous_slots is not None or self.corrected_slots is not None:
            raise CorpusError(f"{self.type.value} barge-in must not carry slot corrections")

    @property
    def subtype(self) -> str:
        return f"{_TYPE_TAG[self.type]}_{_STYLE_TAG[self.style]}"

    @classmethod
    def from_subtype(cls, subtype: str, **kwargs: Any) -> "BargeInMeta":
        base, _, style = subtype.partition("_")
        if base not in _TAG_TYPE or style not in _TAG_STYLE:
            raise CorpusError(f"unknown barge-in subtype: {subtype!r}")
        return cls(type=_TAG_TYPE[base], style=_TAG_STYLE[style], **kwargs)


@dataclass(frozen=True)
class DisfluencyMeta:
    """One disfluency event; [start, end) is what it put into the turn's text:
    the filler and its ", " (FP/DM/EDIT), the ", copy" (REP), the reparandum
    and its connector (COR), or the fragment and the gap after it (RST)."""

    type: str
    position: int
    inserted_span: str
    original_value: str | None = None
    start: int = 0
    end: int = 0

    def __post_init__(self) -> None:
        if self.type not in DISFLUENCY_TYPES:
            raise CorpusError(f"unknown disfluency type: {self.type!r}")
        if self.position < 0:
            raise CorpusError("disfluency position must be non-negative")
        if self.type == "COR" and self.original_value is None:
            raise CorpusError("COR must record the corrected value")


@dataclass(frozen=True)
class SpeakerProfile:
    speaker_id: str
    accent_pool: str
    country: str
    age: int
    age_bin: str
    gender: str
    ref_audio: str | None = None
    ref_duration_s: float | None = None


@dataclass(frozen=True)
class Turn:
    """One utterance with its spoken-behaviour metadata.

    Fields are typed where untyped data enters (turn_from_dict and the ingest
    adapters); the constructor and with_ take them as given and coerce
    nothing: role is a Role, slot_spans a tuple of (name, start, end) tuples,
    disfluency a tuple of DisfluencyMeta in text order. state is the
    source's belief state after this turn (slot -> value), or None where the
    source records none; with_ copies keep it, and turns that augmentation
    inserts carry none. index is the turn's position, set by its Dialogue.
    """

    index: int = field(default=0, kw_only=True)
    role: Role
    text: str
    slot_spans: tuple[tuple[str, int, int], ...] = ()
    emotion: Emotion | None = None
    bargein: BargeInMeta | None = None
    disfluency: tuple[DisfluencyMeta, ...] = ()
    crossturn: CrossTurnMeta | None = None
    audio_ref: str | None = None
    duration_s: float | None = None
    state: dict[str, str] | None = None

    def with_(self, **changes: Any) -> "Turn":
        return replace(self, **changes)


@dataclass(frozen=True)
class Dialogue:
    dialogue_id: str
    source: str
    goal: Goal
    turns: tuple[Turn, ...]
    user_speaker: SpeakerProfile | None = None
    assistant_speaker: SpeakerProfile | None = None

    def __post_init__(self) -> None:
        # Each turn's index is its position; a turn already there is kept as it is.
        object.__setattr__(self, "turns", tuple(t if t.index == i else t.with_(index=i) for i, t in enumerate(self.turns)))

    def with_turns(self, turns: Iterable[Turn]) -> "Dialogue":
        """self with turns, or self itself when they are its own turns, object
        for object: a stage that changes no turn returns its input."""
        turns = tuple(turns)
        if len(turns) == len(self.turns) and all(map(operator.is_, turns, self.turns)):
            return self
        return replace(self, turns=turns)

    def user_turns(self) -> list[Turn]:
        return [t for t in self.turns if t.role is Role.USER]

    def state_at(self, turn_index: int) -> dict[str, str] | None:
        """State of the nearest turn at or before turn_index that carries one."""
        for t in reversed(self.turns[: turn_index + 1]):
            if t.state is not None:
                return t.state
        return None


@dataclass(frozen=True)
class Violation:
    rule: str
    detail: str
    turn_index: int | None = None

    def at(self, prefix: str) -> str:
        """prefix and the turn index, or "" for a violation of the whole dialogue."""
        return "" if self.turn_index is None else f"{prefix}{self.turn_index}"


# --- dialogue edits ------------------------------------------------------------

def splice_turns(d: Dialogue, edits: Sequence[tuple[int, int, Sequence[Turn]]]) -> Dialogue:
    """Apply every edit (start, stop, block), each replacing d.turns[start:stop]
    with block, in one pass.

    Edits are in d's coordinates, in order and not overlapping.
    """
    turns: list[Turn] = []
    at = 0
    for start, stop, block in edits:
        turns += [*d.turns[at:start], *block]
        at = stop
    turns += d.turns[at:]
    return d.with_turns(turns)


def corrections(turns: Sequence[Turn]) -> dict[int, int]:
    """Erroneous user chunk -> the user turn that corrects it: the next user
    turn dictating the same slot, if it re-dictates that chunk without error.
    The cross-turn stage puts it two turns on; a barge-in may land between."""
    out: dict[int, int] = {}
    pending: dict[str, int] = {}  # slot -> its erroneous user chunk
    for i, t in enumerate(turns):
        m = t.crossturn
        if m is None or t.role is not Role.USER:
            continue
        j = pending.pop(m.slot_name, None)
        if j is not None and not m.is_error and turns[j].crossturn.chunk_index == m.chunk_index:
            out[j] = i
        if m.is_error:
            pending[m.slot_name] = i
    return out


def edit_text(t: Turn, start: int, end: int, new: str, **changes: Any) -> Turn:
    """t with text[start:end] replaced by new, then changes applied.

    A slot span that starts inside the replaced text goes; spans and
    disfluency ranges at or after end move with the text. A range that
    overlaps the edit keeps what remains of it outside the replaced text, and
    new joins it if it starts before the edit, as an insertion inside a range
    does; a range left empty goes. The audio of the old text no longer speaks
    the turn, so audio_ref and duration_s are cleared unless changes sets them.
    """
    delta = len(new) - (end - start)
    after = start + len(new)  # where the text after the edit now starts
    spans = tuple(
        (name, s + delta, e + delta) if s >= end else (name, s, e)
        for name, s, e in t.slot_spans
        if not start <= s < end
    )
    ranges = []
    for m in t.disfluency:
        if m.start >= end:
            m = replace(m, start=m.start + delta, end=m.end + delta)
        elif m.end > start:
            m = replace(m, start=m.start if m.start < start else after, end=max(after, m.end + delta))
            if m.start == m.end:
                continue
        ranges.append(m)
    text = t.text[:start] + new + t.text[end:]
    return t.with_(**{"text": text, "slot_spans": spans, "disfluency": tuple(ranges),
                      "audio_ref": None, "duration_s": None, **changes})


def clear_of(spans: Iterable[tuple[str, int, int]], start: int, end: int) -> bool:
    """Whether [start, end) overlaps none of spans."""
    return all(end <= s or e <= start for _, s, e in spans)


@dataclass(frozen=True)
class SpanReport:
    matched: tuple[tuple[str, int, int], ...]
    unmatched: tuple[tuple[str, str], ...]


def locate_slot_spans(utterance: str, values: Sequence[tuple[str, str]]) -> SpanReport:
    """Leftmost non-overlapping exact matches; misses are reported, not guessed."""
    matched: list[tuple[str, int, int]] = []
    unmatched: list[tuple[str, str]] = []
    for name, value in values:
        i = utterance.find(value) if value else -1
        while i >= 0 and not clear_of(matched, i, i + len(value)):
            i = utterance.find(value, i + 1)
        if i < 0:
            unmatched.append((name, value))
        else:
            matched.append((name, i, i + len(value)))
    return SpanReport(tuple(matched), tuple(unmatched))


def validate_dialogue(d: Dialogue) -> list[Violation]:
    """Check structural invariants; returns violations instead of raising."""
    out: list[Violation] = []

    if not d.turns:
        out.append(Violation("turns.empty", "dialogue has no turns"))

    for i in range(1, len(d.turns)):
        prev, cur = d.turns[i - 1], d.turns[i]
        if prev.role is cur.role:
            # Assistant may speak twice in a row only when resuming right
            # after an interruption it just handled.
            allowed = (
                prev.role is Role.ASSISTANT
                and i >= 2
                and d.turns[i - 2].role is Role.USER
                and d.turns[i - 2].bargein is not None
            )
            if not allowed:
                out.append(
                    Violation(
                        "turns.alternation",
                        f"consecutive {cur.role.value} turns at {i - 1}, {i}",
                        i,
                    )
                )

    for t in d.turns:
        n = len(t.text)
        taken: list[tuple[str, int, int]] = []
        for name, start, end in t.slot_spans:
            if not (0 <= start < end <= n):
                out.append(
                    Violation("turn.span_bounds", f"span {name!r} [{start}:{end}) outside text of length {n}", t.index)
                )
                continue
            if not clear_of(taken, start, end):
                out.append(Violation("turn.span_overlap", f"span {name!r} overlaps another span", t.index))
            taken.append((name, start, end))

        if t.disfluency:
            bounds = _bounds(t.disfluency, n)
            if bounds != sorted(bounds) or not all(clear_of(t.slot_spans, m.start, m.end) for m in t.disfluency):
                out.append(Violation(
                    "turn.disfluency_range", "ranges must lie in the text, in order, apart and clear of slot spans",
                    t.index,
                ))

        if t.duration_s is not None and not MIN_TURN_S <= t.duration_s <= MAX_TURN_S:
            out.append(Violation(
                "turn.duration", f"{t.duration_s:.2f} s outside [{MIN_TURN_S}, {MAX_TURN_S}] s", t.index
            ))

        if t.role is Role.USER and BARGEIN_TOKEN in t.text:
            out.append(Violation("turn.bargein_token", "user turn contains the truncation token", t.index))
        if t.role is Role.ASSISTANT:
            if t.bargein is not None and not t.text.endswith(BARGEIN_TOKEN):
                out.append(Violation("turn.truncation", "truncated assistant turn must end with the token", t.index))
            if BARGEIN_TOKEN in t.text and not t.text.endswith(BARGEIN_TOKEN):
                out.append(Violation("turn.truncation", "truncation token not at end of turn", t.index))
            if t.text.endswith(BARGEIN_TOKEN) and t.bargein is None:
                out.append(Violation("turn.truncation_meta", "truncated turn lacks barge-in metadata", t.index))

        if t.bargein is not None and t.bargein.type is BargeInType.ERROR_RECOVERY:
            state = d.state_at(t.index)
            if state is not None and t.bargein.corrected_slots:
                for k, v in t.bargein.corrected_slots.items():
                    if k in state and state[k] != v:
                        out.append(
                            Violation(
                                "turn.bargein_slots",
                                f"corrected value {v!r} for {k!r} disagrees with state {state[k]!r}",
                                t.index,
                            )
                        )

    return out


# --- tagged text and fluent reading --------------------------------------------

# The connectors a self-correction (COR) may join its reparandum and repair with.
COR_CONNECTORS = ("— no, ", "— wait, I mean ", "— actually, ")
# Each type's marker: REP's and RST's replace the ", " or gap at their place.
_MARKS = {**{k: f"[{k}] " for k in DISFLUENCY_TYPES}, "REP": " [REP] ", "RST": " [RST] "}
_MARKER = re.compile(r"\[(%s)\]" % "|".join(DISFLUENCY_TYPES))


def _marked(text: str, metas: Iterable[DisfluencyMeta]) -> str:
    out: list[str] = []
    at = 0
    for m in metas:
        if m.type == "REP":  # ", copy" -> " [REP] copy"
            cut, resume = m.start, m.start + 2
        elif m.type == "COR":  # "wrong— no, " -> "wrong— [COR] no, "
            cut = resume = text.rfind("— ", m.start, m.end) + 2
        elif m.type == "RST":  # "fragment... " -> "fragment... [RST] "
            cut, resume = m.start + len(text[m.start : m.end].rstrip()), m.end
        else:  # "uh, " -> "[FP] uh, "
            cut = resume = m.start
        out += (text[at:cut], _MARKS[m.type])
        at = resume
    out.append(text[at:])
    return "".join(out)


def tagged_text(t: Turn) -> str:
    """t's text with each disfluency's marker at its fixed place in its range."""
    return _marked(t.text, t.disfluency)


def _bounds(metas: Iterable[DisfluencyMeta], n: int) -> list[int]:
    """0, each range's start and end, and n: ascending iff the ranges lie in a
    text of length n, in order and apart; each pair from 0 or an end is fluent."""
    return [0, *(p for m in metas for p in (m.start, m.end)), n]


def fluent_text(t: Turn) -> str:
    """t's text with every disfluency range cut out: the text before injection."""
    bounds = _bounds(t.disfluency, len(t.text))
    return "".join(t.text[a:b] for a, b in zip(bounds[::2], bounds[1::2]))


def _with_ranges(text: str, tagged: str | None, metas: tuple[DisfluencyMeta, ...]) -> tuple[DisfluencyMeta, ...]:
    """metas with each range read off where its marker sits in tagged; tagged
    must be text with a marker for each of metas, in order, and nothing else."""
    marks = list(_MARKER.finditer(tagged or ""))
    ok = len(marks) == len(metas)
    out: list[DisfluencyMeta] = []
    for meta, mark in zip(metas, marks) if ok else ():
        n, piece = len(meta.inserted_span), _MARKS[meta.type]
        # Where the marker goes in text: its place in tagged, less what the markers before it add.
        cut = mark.start() - piece.index("[") - (len(_marked(text, out)) - len(text))
        if meta.type == "COR":  # "wrong— " before the marker, the rest of its connector after
            conn = next((c for c in COR_CONNECTORS if text.startswith(c, cut - 2)), None)
            start, end = cut - 2 - n, cut - 2 + len(conn) if conn else -1
        elif meta.type == "RST":  # the fragment before the marker, which stands for the gap after it
            start, end = cut - n, len(text) - len(text[cut:].lstrip())
        else:  # "uh, " or ", copy" from the marker on
            start, end = cut, cut + n + (2 if meta.type == "REP" else 1)
        ok = mark[1] == meta.type and text.startswith(meta.inserted_span, start + 2 * (meta.type == "REP"))
        if not ok:
            break
        out.append(DisfluencyMeta(meta.type, meta.position, meta.inserted_span, meta.original_value, start, end))
    bounds = _bounds(out, len(text))
    if not (ok and bounds == sorted(bounds) and _marked(text, out) == tagged):
        raise CorpusError(must("tagged", "the text with a marker at each disfluency", tagged))
    return tuple(out)


# --- JSON serialization ------------------------------------------------------


# JSON keys of the corpus speaker fields whose names differ from SpeakerProfile's.
_SPEAKER_KEYS = {"accent_pool": "category", "gender": "sex"}


def _speaker_from_dict(d: Any, where: str) -> SpeakerProfile | None:
    if check(where, d, "dict | None", CorpusError) is None:
        return None
    category = d.get("category")
    d = {"speaker_id": "", "age_bin": "", **d, "category": category.lower() if isinstance(category, str) else category}
    return build(SpeakerProfile, where, d, CorpusError, _SPEAKER_KEYS)


def turn_to_dict(t: Turn) -> dict[str, Any]:
    out: dict[str, Any] = {"role": t.role.value, "text": t.text}
    if t.disfluency:
        out["tagged"] = tagged_text(t)
    if t.slot_spans:
        out["slot_spans"] = [[name, start, end] for name, start, end in t.slot_spans]
    if t.emotion is not None:
        out["emotion"] = {"label": int(t.emotion), "name": t.emotion.label_name}
    if t.bargein is not None:
        b: dict[str, Any] = {"type": t.bargein.type.value.upper(), "subtype": t.bargein.subtype}
        if t.bargein.erroneous_slots is not None:
            b["erroneous_slots"] = dict(t.bargein.erroneous_slots)
            b["corrected_slots"] = dict(t.bargein.corrected_slots or {})
        out["bargein"] = b
    if t.disfluency:
        # The reader gets each range back from tagged.
        out["disfluency"] = [dump(m, {"start": None, "end": None}) for m in t.disfluency]
    if t.crossturn is not None:
        out["crossturn"] = dump(t.crossturn)
    if t.audio_ref is not None:
        out["audio_path"] = t.audio_ref
    if t.duration_s is not None:
        out["duration_s"] = t.duration_s
    if t.state is not None:
        out["state"] = t.state
    return out


_ROLES = {r.value: r for r in Role}
_EMOTIONS = tuple((e, e.label_name) for e in Emotion)
# Turn keys read as they stand: JSON key -> its annotation.
_TURN_PLAIN = {"text": "str", "tagged": "str | None", "audio_path": "str | None", "duration_s": "float | None",
               "state": "dict[str, str] | None"}
_BARGEIN_SLOTS = tuple((f.name, f.type) for f in fields(BargeInMeta) if f.name.endswith("_slots"))


def turn_from_dict(d: Any, index: int) -> Turn:
    """A Turn from its JSON object; a bad value is a CorpusError naming the turn."""
    if not isinstance(d, dict):
        raise CorpusError(must(f"turn {index}", "an object", d))
    try:
        get = d.get
        text, tagged, audio, duration, state = get("text"), get("tagged"), get("audio_path"), get("duration_s"), get("state")
        # The plain fields are checked inline, as their annotations say,
        # because this runs for every turn; TYPES words the error.
        if not (
            isinstance(text, str)
            and (tagged is None or isinstance(tagged, str))
            and (audio is None or isinstance(audio, str))
            and (duration is None or type(duration) is float or type(duration) is int)
            and (state is None or isinstance(state, dict) and all(isinstance(v, str) for v in state.values()))
        ):
            for key, annotation in _TURN_PLAIN.items():
                check(key, get(key), annotation, CorpusError)
        role = get("role")
        if not (isinstance(role, str) and role in _ROLES):
            raise CorpusError(must("role", " or ".join(map(repr, _ROLES)), role))
        role = _ROLES[role]
        slot_spans = ()
        if "slot_spans" in d:
            spans = get("slot_spans")
            if not isinstance(spans, list) or not all(
                isinstance(s, list) and len(s) == 3 and isinstance(s[0], str) and type(s[1]) is int and type(s[2]) is int
                for s in spans
            ):
                raise CorpusError(must("slot_spans", "an array of [name, start, end] arrays", spans))
            slot_spans = tuple(map(tuple, spans))
        emotion = get("emotion")
        if emotion is not None:
            label = emotion.get("label") if isinstance(emotion, dict) else None
            member, name = _EMOTIONS[label] if type(label) is int and 0 <= label < len(_EMOTIONS) else (None, None)
            if member is None or emotion.get("name", name) != name:
                raise CorpusError(must("emotion", 'null or {"label": 0-6, "name": its name}', emotion))
            emotion = member
        bargein = stored = get("bargein")
        if bargein is not None:
            check("bargein", stored, "dict", CorpusError)
            bargein = BargeInMeta.from_subtype(
                check("bargein.subtype", stored.get("subtype"), "str", CorpusError),
                **{name: check(f"bargein.{name}", stored.get(name), annotation, CorpusError)
                   for name, annotation in _BARGEIN_SLOTS},
            )
            derived = bargein.type.value.upper()
            if stored.get("type", derived) != derived:
                raise CorpusError(must("bargein.type", json.dumps(derived), stored["type"]))
        disfluency = ()
        if "disfluency" in d:
            metas = check("disfluency", get("disfluency"), "list", CorpusError)
            disfluency = tuple(build(DisfluencyMeta, f"disfluency[{i}]", m, CorpusError) for i, m in enumerate(metas))
        if disfluency or tagged is not None:
            disfluency = _with_ranges(text, tagged, disfluency)
        crossturn = get("crossturn")
        return Turn(
            index=index,
            role=role,
            text=text,
            slot_spans=slot_spans,
            emotion=emotion,
            bargein=bargein,
            disfluency=disfluency,
            crossturn=None if crossturn is None else build(CrossTurnMeta, "crossturn", crossturn, CorpusError),
            audio_ref=audio,
            duration_s=duration,
            state=state,
        )
    except CorpusError as exc:
        raise CorpusError(f"turn {index}: {exc}") from exc


def _goal_sets(goal: Goal) -> dict[str, list[str]]:
    """The sorted domains and intents of goal's sub-goals, as stored."""
    return {
        "domains": sorted({sg.domain for sg in goal.sub_goals}),
        "intents": sorted({sg.intent for sg in goal.sub_goals}),
    }


def dialogue_to_dict(d: Dialogue) -> dict[str, Any]:
    structured = {
        **_goal_sets(d.goal),
        "sub_goals": [dump(sg) for sg in d.goal.sub_goals],
    }
    turns = [turn_to_dict(t) for t in d.turns]
    for i, j in corrections(d.turns).items():
        turns[i]["crossturn"]["corrected_in_turn"] = j
    out: dict[str, Any] = {
        "dialogue_id": d.dialogue_id,
        "source": d.source,
        "goal": {"text": d.goal.text, "structured": structured},
        "turns": turns,
    }
    for key, sp in (("speaker", d.user_speaker), ("assistant_speaker", d.assistant_speaker)):
        if sp is not None:
            out[key] = {**dump(sp, _SPEAKER_KEYS), "category": sp.accent_pool.capitalize()}
    return out


def dialogue_from_dict(data: Any) -> Dialogue:
    """A Dialogue from its JSON object; a bad value is one CorpusError naming
    the dialogue (and the turn, if the value is in one). A stored correction
    pointer, barge-in type, or goal domain or intent list must be the one
    derived from the rest."""
    check("dialogue", data, "dict", CorpusError)
    dialogue_id = check("dialogue_id", data.get("dialogue_id"), "str", CorpusError)
    try:
        goal = check("goal", data.get("goal"), "dict", CorpusError)
        structured = check("goal.structured", goal.get("structured", {}), "dict", CorpusError)
        sub_goals = check("goal.structured.sub_goals", structured.get("sub_goals", []), "list", CorpusError)
        goal = Goal(
            text=check("goal.text", goal.get("text", ""), "str", CorpusError),
            sub_goals=tuple(
                build(SubGoal, f"goal.structured.sub_goals[{i}]", sg, CorpusError) for i, sg in enumerate(sub_goals)
            ),
        )
        for key, derived in _goal_sets(goal).items():
            if structured.get(key, derived) != derived:
                raise CorpusError(must(f"goal.structured.{key}", json.dumps(derived), structured[key]))
        raw = check("turns", data.get("turns"), "list", CorpusError)
        turns = tuple(turn_from_dict(t, i) for i, t in enumerate(raw))
        fixes = corrections(turns)
        for i, t in enumerate(turns):
            if t.crossturn is not None:
                where = f"turn {i}: crossturn.corrected_in_turn"
                stored = check(where, raw[i]["crossturn"].get("corrected_in_turn"), "int | None", CorpusError)
                if stored != fixes.get(i):
                    raise CorpusError(must(where, json.dumps(fixes.get(i)), stored))
        return Dialogue(
            dialogue_id=dialogue_id,
            source=check("source", data.get("source", "generic"), "str", CorpusError),
            goal=goal,
            turns=turns,
            user_speaker=_speaker_from_dict(data.get("speaker"), "speaker"),
            assistant_speaker=_speaker_from_dict(data.get("assistant_speaker"), "assistant_speaker"),
        )
    except CorpusError as exc:
        raise CorpusError(f"dialogue {dialogue_id!r}: {exc}") from exc


def dumps_dialogue(d: Dialogue) -> str:
    return json.dumps(dialogue_to_dict(d), ensure_ascii=False)


def loads_dialogue(s: str) -> Dialogue:
    return dialogue_from_dict(json.loads(s))


def iter_records(path: str | Path) -> Iterator[dict[str, Any]]:
    """Raw JSON records of a file holding a JSON array, one JSON object, or NDJSON.

    A file that opens with "{" is one object unless a later line also opens
    with "{" at its first column, which makes it NDJSON.
    A text that is not JSON is a CorpusError naming the file and its line.
    """
    text = Path(path).read_text(encoding="utf-8")
    head = text.lstrip()
    if head.startswith("["):
        yield from parse_json(path, CorpusError, text)
    elif head.startswith("{") and "\n{" not in head:
        yield parse_json(path, CorpusError, text)
    else:
        yield from (parse_json(path, CorpusError, line, n) for n, line in enumerate(text.splitlines()) if line.strip())


def load_corpus(path: str | Path) -> list[Dialogue]:
    """Read a corpus file: NDJSON (one dialogue per line) or a JSON array/object;
    a bad record's CorpusError is prefixed with <file>[i], its file and position."""
    out = []
    for i, x in enumerate(iter_records(path)):
        try:
            out.append(dialogue_from_dict(x))
        except CorpusError as exc:
            raise CorpusError(f"{path}[{i}]: {exc}") from exc
    return out


def save_corpus(dialogues: Iterable[Dialogue], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for d in dialogues:
            fh.write(dumps_dialogue(d))
            fh.write("\n")
