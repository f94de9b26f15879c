"""Source-corpus adapters into the unified dialogue schema.

Each adapter reconstructs the goal (structured sub-goals plus a templated text
where the source provides none) and recovers character-level slot spans:
copied verbatim where the source annotates positions, recovered by
placeholder alignment for delexicalized sources, and located by exact string
match otherwise. Span recovery failures are warnings, never guesses. Every
adapter ends in one shared tail (_dialogue), so every source merges runs of
one speaker into one turn the same way.
"""

from __future__ import annotations

import logging
import re
from typing import Any, Iterable, Mapping, Sequence

from .corpus import (
    Dialogue,
    Emotion,
    Goal,
    Role,
    SpanReport,
    SubGoal,
    Turn,
    clear_of,
    dialogue_from_dict,
    edit_text,
    locate_slot_spans,
)

log = logging.getLogger(__name__)


def template_goal_text(goal_struct: Sequence[SubGoal]) -> str:
    """Fixed English skeleton for sources that ship no goal narrative."""
    sentences: list[str] = []
    for sg in goal_struct:
        intent_phrase = sg.intent.replace("_", " ") if sg.intent else "complete a task"
        s = f"You want to {intent_phrase} in the {sg.domain} domain"
        if sg.constraints:
            pairs = ", ".join(f"{k} = {v}" for k, v in sorted(sg.constraints.items()))
            s += f" with {pairs}"
        s += "."
        if sg.requests:
            wanted = ", ".join(sorted(sg.requests))
            s += f" Find out: {wanted}."
        sentences.append(s)
    return " ".join(sentences)


def adapt(source: str, raw: Mapping[str, Any]) -> Dialogue:
    """The unified dialogue for one record of a source corpus."""
    if source not in _ADAPTERS:
        raise ValueError(f"unknown source {source!r}")
    return _ADAPTERS[source](raw, source)


def _merge_runs(turns: Iterable[Turn]) -> list[Turn]:
    """One turn per run of one role: texts joined by a space, the later
    turn's spans shifted past the join, and the later turn's state kept."""
    out: list[Turn] = []
    for t in turns:
        if out and out[-1].role is t.role:
            prev = out[-1]
            joined = edit_text(t, 0, 0, f"{prev.text} ")
            out[-1] = prev.with_(text=joined.text, slot_spans=prev.slot_spans + joined.slot_spans, state=t.state)
        else:
            out.append(t)
    return out


def _dialogue(
    dialogue_id: str, source: str, sub_goals: Sequence[SubGoal], turns: Iterable[Turn], goal_text: str = ""
) -> Dialogue:
    """The tail every adapter shares: runs of one role merged, and a general
    sub-goal and a templated goal text where the source gives none."""
    sub_goals = tuple(sub_goals) or (SubGoal("general", "complete_task"),)
    goal = Goal(text=goal_text or template_goal_text(sub_goals), sub_goals=sub_goals)
    return Dialogue(dialogue_id, source, goal, _merge_runs(turns))


# --- SGD ------------------------------------------------------------------------


def _adapt_sgd(raw: Mapping[str, Any], source: str) -> Dialogue:
    dialogue_id = str(raw["dialogue_id"])
    turns: list[Turn] = []
    final_state: dict[str, dict[str, str]] = {}
    requested: dict[str, set[str]] = {}
    intents: dict[str, str] = {}

    for i, t in enumerate(raw["turns"]):
        role = Role.USER if t["speaker"].upper() == "USER" else Role.ASSISTANT
        text = t["utterance"]
        spans: list[tuple[str, int, int]] = []
        flat_state: dict[str, str] = {}
        for frame in t.get("frames", ()):
            service = frame.get("service", "")
            for s in frame.get("slots", ()):
                start, end = int(s["start"]), int(s["exclusive_end"])
                if not 0 <= start < end <= len(text):
                    log.warning("span out of bounds in %s turn %d; dropped", dialogue_id, i)
                elif clear_of(spans, start, end):
                    spans.append((s["slot"], start, end))
            state = frame.get("state") or {}
            for slot, vals in (state.get("slot_values") or {}).items():
                if vals:
                    final_state.setdefault(service, {})[slot] = vals[0]
                    flat_state[f"{service}.{slot}"] = vals[0]
            for slot in state.get("requested_slots", ()):
                requested.setdefault(service, set()).add(slot)
            intent = state.get("active_intent")
            if intent and intent != "NONE":
                intents[service] = intent
        user_state = flat_state if flat_state and role is Role.USER else None
        turns.append(Turn(role=role, text=text, slot_spans=tuple(spans), state=user_state))

    services = sorted(set(final_state) | set(requested) | set(intents))
    sub_goals = [
        SubGoal(
            domain=service,
            intent=intents.get(service, "complete_task"),
            constraints=dict(final_state.get(service, {})),
            requests=frozenset(requested.get(service, set())),
        )
        for service in services
    ]
    return _dialogue(dialogue_id, source, sub_goals, turns)


# --- Taskmaster-2 ------------------------------------------------------------------


def _adapt_tm2(raw: Mapping[str, Any], source: str) -> Dialogue:
    dialogue_id = str(raw.get("conversation_id") or raw["dialogue_id"])
    turns: list[Turn] = []
    collected: dict[str, dict[str, str]] = {}
    for i, u in enumerate(raw["utterances"]):
        role = Role.USER if u["speaker"].upper() == "USER" else Role.ASSISTANT
        text = u["text"]
        spans: list[tuple[str, int, int]] = []
        for seg in u.get("segments", ()):
            start, end = int(seg["start_index"]), int(seg["end_index"])
            names = seg.get("annotations") or [{}]
            name = names[0].get("name", "value")
            if not 0 <= start < end <= len(text) or text[start:end] != seg.get("text", text[start:end]):
                log.warning("segment mismatch in %s turn %d; span dropped", dialogue_id, i)
            elif clear_of(spans, start, end):
                domain, dot, slot = name.partition(".")
                if not dot:
                    domain, slot = "general", domain
                spans.append((slot, start, end))
                if role is Role.USER:
                    collected.setdefault(domain, {}).setdefault(slot, text[start:end])
        turns.append(Turn(role=role, text=text, slot_spans=tuple(spans)))

    sub_goals = [
        SubGoal(domain=domain, intent="complete_task", constraints=dict(slots))
        for domain, slots in sorted(collected.items())
    ]
    return _dialogue(dialogue_id, source, sub_goals, turns)


# --- ABCD ---------------------------------------------------------------------------


_PLACEHOLDER_RE = re.compile(r"<([a-z_]+)>")


def align_placeholders(original: str, delexed: str) -> SpanReport:
    """Recover literal spans by prefix/suffix matching around <placeholders>."""
    names = _PLACEHOLDER_RE.findall(delexed)
    if not names:
        return SpanReport((), ())
    # split puts the placeholder names at odd positions, the literal text at even ones
    pattern = r"(.+?)".join(re.escape(piece) for piece in _PLACEHOLDER_RE.split(delexed)[::2])
    m = re.fullmatch(pattern, original, flags=re.DOTALL)
    if not m:
        return SpanReport((), tuple((name, f"<{name}>") for name in names))
    matched = tuple(
        (name, m.start(g + 1), m.end(g + 1)) for g, name in enumerate(names)
    )
    return SpanReport(matched, ())


def _leaf_strings(obj: Any, key: str = "") -> list[tuple[str, str]]:
    """(own key, value) for every non-empty string in a nested mapping."""
    if isinstance(obj, Mapping):
        return [pair for k, v in obj.items() for pair in _leaf_strings(v, str(k))]
    return [(key, obj)] if isinstance(obj, str) and obj else []


def _adapt_abcd(raw: Mapping[str, Any], source: str) -> Dialogue:
    dialogue_id = str(raw.get("convo_id") or raw["dialogue_id"])
    original = raw["original"]
    delexed = raw.get("delexed") or [[spk, txt] for spk, txt in original]
    rows: list[Turn] = []
    for (spk, text), (_, delexed_text) in zip(original, delexed, strict=True):
        spk = spk.lower()
        if spk == "action":
            continue
        role = Role.USER if spk == "customer" else Role.ASSISTANT
        report = align_placeholders(text, delexed_text)
        for _, placeholder in report.unmatched:
            log.warning("placeholder %s failed to align in %s; dropped", placeholder, dialogue_id)
        rows.append(Turn(role=role, text=text, slot_spans=report.matched))

    # Scenario values no placeholder covered are looked for in user turns.
    scenario = raw.get("scenario") or {}
    values = _leaf_strings({k: v for k, v in scenario.items() if k not in ("flow", "subflow", "prompt")})
    covered = {name for t in rows for name, _, _ in t.slot_spans}
    remaining = [(name, value) for name, value in values if name not in covered]
    turns: list[Turn] = []
    for t in _merge_runs(rows):
        if t.role is Role.USER and remaining:
            report = locate_slot_spans(t.text, remaining)
            keep = tuple((n, s, e) for n, s, e in report.matched if clear_of(t.slot_spans, s, e))
            t = t.with_(slot_spans=t.slot_spans + keep)
            found = {n for n, _, _ in keep}
            remaining = [(n, v) for n, v in remaining if n not in found]
        turns.append(t)

    sub_goals = [
        SubGoal(
            domain=str(scenario.get("flow") or "support"),
            intent=str(scenario.get("subflow") or "resolve_issue"),
            constraints=dict(values),
        )
    ]
    return _dialogue(dialogue_id, source, sub_goals, turns, str(scenario.get("prompt") or ""))


# --- EmoWOZ / SpokenWOZ ------------------------------------------------------------


_TAG_RE = re.compile(r"<[^>]+>")


def _woz_goal(raw_goal: Mapping[str, Any]) -> tuple[list[SubGoal], str]:
    """The goal's sub-goals and its message text, tags stripped."""
    sub_goals: list[SubGoal] = []
    for domain, spec_block in raw_goal.items():
        if domain in ("message", "topic") or not isinstance(spec_block, Mapping):
            continue
        info = spec_block.get("info") or {}
        book = spec_block.get("book") or {}
        reqt = spec_block.get("reqt") or []
        if not (info or book or reqt):
            continue
        constraints = {str(k): str(v) for k, v in info.items()}
        constraints.update({f"book{k}": str(v) for k, v in book.items() if not isinstance(v, (list, dict))})
        intent = "find_and_book" if book else "find"
        sub_goals.append(
            SubGoal(
                domain=str(domain),
                intent=intent,
                constraints=constraints,
                requests=frozenset(str(r) for r in reqt),
            )
        )
    message = raw_goal.get("message") or []
    if isinstance(message, str):
        message = [message]
    return sub_goals, _TAG_RE.sub("", " ".join(message)).strip()


def _flatten_metadata(metadata: Mapping[str, Any]) -> dict[str, str]:
    flat: dict[str, str] = {}
    for domain, block in metadata.items():
        if not isinstance(block, Mapping):
            continue
        for section in ("semi", "book"):
            for slot, value in (block.get(section) or {}).items():
                if isinstance(value, str) and value and value.lower() not in ("not mentioned", "none", ""):
                    flat[f"{domain}-{slot}"] = value
    return flat


def _emotion_of(entry: Mapping[str, Any]) -> Emotion | None:
    raw = entry.get("emotion")
    if raw is None:
        return None
    if isinstance(raw, list):
        raw = raw[0].get("emotion") if raw and isinstance(raw[0], Mapping) else (raw[0] if raw else None)
    if raw is None or int(raw) < 0:
        return None
    return Emotion(int(raw))


def _adapt_woz(raw: Mapping[str, Any], source: str) -> Dialogue:
    sub_goals, goal_text = _woz_goal(raw.get("goal") or {})
    turns: list[Turn] = []
    prev_state: dict[str, str] = {}
    for i, entry in enumerate(raw["log"]):
        role = Role.USER if i % 2 == 0 else Role.ASSISTANT
        text = str(entry["text"]).strip()
        emotion = _emotion_of(entry) if role is Role.USER else None
        state: dict[str, str] | None = None
        if role is Role.ASSISTANT:
            state = _flatten_metadata(entry.get("metadata") or {}) or None
            if state:
                new_values = [(k, v) for k, v in state.items() if prev_state.get(k) != v]
                prev_state = state
                user_turn = turns[-1]
                report = locate_slot_spans(user_turn.text, new_values)
                for name, value in report.unmatched:
                    log.debug("state value %s=%r not in user turn; no span", name, value)
                turns[-1] = user_turn.with_(slot_spans=user_turn.slot_spans + report.matched)
        turns.append(Turn(role=role, text=text, emotion=emotion, state=state))
    return _dialogue(str(raw.get("dialogue_id") or raw["id"]), source, sub_goals, turns, goal_text)


_ADAPTERS = {
    "sgd": _adapt_sgd,
    "tm2": _adapt_tm2,
    "abcd": _adapt_abcd,
    "emowoz": _adapt_woz,
    "spokenwoz": _adapt_woz,
    "generic": lambda raw, source: dialogue_from_dict(dict(raw)),
}
SOURCES = tuple(_ADAPTERS)
