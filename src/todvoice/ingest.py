"""Source-corpus adapters into the unified dialogue schema.

Each adapter reconstructs the goal (structured sub-goals plus a templated text
where the source provides none) and recovers character-level slot spans:
copied verbatim where the source annotates positions, recovered by
placeholder alignment for delexicalized sources, and located by exact string
match otherwise. Span recovery failures are warnings, never guesses.
"""

from __future__ import annotations

import logging
import re
from typing import Any, Mapping, Sequence

from .corpus import (
    Dialogue,
    Emotion,
    Goal,
    Role,
    SpanReport,
    SubGoal,
    Turn,
    dialogue_from_dict,
    locate_slot_spans,
    shift_spans,
)

log = logging.getLogger(__name__)

SOURCES = ("sgd", "tm2", "abcd", "emowoz", "spokenwoz", "generic")


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
    if source == "generic":
        return dialogue_from_dict(dict(raw))
    if source == "sgd":
        return _adapt_sgd(raw)
    if source == "tm2":
        return _adapt_tm2(raw)
    if source == "abcd":
        return _adapt_abcd(raw)
    if source in ("emowoz", "spokenwoz"):
        return _adapt_woz(raw, source)
    raise ValueError(f"unknown source {source!r}")


# --- SGD ------------------------------------------------------------------------


def _adapt_sgd(raw: Mapping[str, Any]) -> Dialogue:
    turns: list[Turn] = []
    final_state: dict[str, dict[str, str]] = {}
    requested: dict[str, set[str]] = {}
    intents: dict[str, str] = {}

    for i, t in enumerate(raw["turns"]):
        role = Role.USER if t["speaker"].upper() == "USER" else Role.ASSISTANT
        text = t["utterance"]
        spans: list[tuple[str, int, int]] = []
        taken: list[tuple[int, int]] = []
        flat_state: dict[str, str] = {}
        for frame in t.get("frames", ()):
            service = frame.get("service", "")
            for s in frame.get("slots", ()):
                start, end = int(s["start"]), int(s["exclusive_end"])
                if not 0 <= start < end <= len(text):
                    log.warning("span out of bounds in %s turn %d; dropped", raw.get("dialogue_id"), i)
                    continue
                if any(start < e and s0 < end for s0, e in taken):
                    continue
                spans.append((s["slot"], start, end))
                taken.append((start, end))
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
        turns.append(Turn(index=i, role=role, text=text, slot_spans=tuple(spans), state=user_state))

    services = sorted(set(final_state) | set(requested) | set(intents))
    sub_goals = tuple(
        SubGoal(
            domain=service,
            intent=intents.get(service, "complete_task"),
            constraints=dict(final_state.get(service, {})),
            requests=frozenset(requested.get(service, set())),
        )
        for service in services
    ) or (SubGoal(domain="general", intent="complete_task"),)
    goal = Goal(text=template_goal_text(sub_goals), sub_goals=sub_goals)
    return Dialogue(
        dialogue_id=str(raw["dialogue_id"]),
        source="sgd",
        goal=goal,
        turns=tuple(turns),
    )


# --- Taskmaster-2 ------------------------------------------------------------------


def _tm2_name(annotation_name: str) -> tuple[str, str]:
    parts = annotation_name.split(".")
    if len(parts) == 1:
        return "general", parts[0]
    return parts[0], ".".join(parts[1:])


def _adapt_tm2(raw: Mapping[str, Any]) -> Dialogue:
    turns: list[Turn] = []
    collected: dict[str, dict[str, str]] = {}
    for i, u in enumerate(raw["utterances"]):
        role = Role.USER if u["speaker"].upper() == "USER" else Role.ASSISTANT
        text = u["text"]
        spans: list[tuple[str, int, int]] = []
        taken: list[tuple[int, int]] = []
        for seg in u.get("segments", ()):
            start, end = int(seg["start_index"]), int(seg["end_index"])
            names = seg.get("annotations") or [{}]
            name = names[0].get("name", "value")
            if not 0 <= start < end <= len(text) or text[start:end] != seg.get("text", text[start:end]):
                log.warning("segment mismatch in %s turn %d; span dropped", raw.get("conversation_id"), i)
                continue
            if any(start < e and s0 < end for s0, e in taken):
                continue
            domain, slot = _tm2_name(name)
            spans.append((slot, start, end))
            taken.append((start, end))
            if role is Role.USER:
                collected.setdefault(domain, {}).setdefault(slot, text[start:end])
        turns.append(Turn(index=i, role=role, text=text, slot_spans=tuple(spans)))

    sub_goals = tuple(
        SubGoal(domain=domain, intent="complete_task", constraints=dict(slots))
        for domain, slots in sorted(collected.items())
    ) or (SubGoal(domain="general", intent="complete_task"),)
    goal = Goal(text=template_goal_text(sub_goals), sub_goals=sub_goals)
    return Dialogue(
        dialogue_id=str(raw.get("conversation_id") or raw["dialogue_id"]),
        source="tm2",
        goal=goal,
        turns=tuple(turns),
    )


# --- ABCD ---------------------------------------------------------------------------


_PLACEHOLDER_RE = re.compile(r"<([a-z_]+)>")


def align_placeholders(original: str, delexed: str) -> SpanReport:
    """Recover literal spans by prefix/suffix matching around <placeholders>."""
    names = _PLACEHOLDER_RE.findall(delexed)
    if not names:
        return SpanReport((), ())
    pattern = ""
    last = 0
    for m in _PLACEHOLDER_RE.finditer(delexed):
        pattern += re.escape(delexed[last : m.start()]) + r"(.+?)"
        last = m.end()
    pattern += re.escape(delexed[last:])
    m = re.fullmatch(pattern, original, flags=re.DOTALL)
    if not m:
        return SpanReport((), tuple((name, f"<{name}>") for name in names))
    matched = tuple(
        (name, m.start(g + 1), m.end(g + 1)) for g, name in enumerate(names)
    )
    return SpanReport(matched, ())


def _flat_strings(obj: Any, prefix: str = "") -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    if isinstance(obj, Mapping):
        for k, v in obj.items():
            out.extend(_flat_strings(v, f"{prefix}{k}" if not prefix else f"{prefix}.{k}"))
    elif isinstance(obj, str) and obj:
        out.append((prefix, obj))
    return out


def _merge_consecutive(rows: list[tuple[Role, str, tuple[tuple[str, int, int], ...]]]) -> list[Turn]:
    turns: list[Turn] = []
    for role, text, spans in rows:
        if turns and turns[-1].role is role:
            prev = turns[-1]
            shifted = shift_spans(spans, 0, len(prev.text) + 1)
            turns[-1] = prev.with_(text=f"{prev.text} {text}", slot_spans=prev.slot_spans + shifted)
        else:
            turns.append(Turn(index=len(turns), role=role, text=text, slot_spans=spans))
    return turns


def _adapt_abcd(raw: Mapping[str, Any]) -> Dialogue:
    original = raw["original"]
    delexed = raw.get("delexed") or [[spk, txt] for spk, txt in original]
    rows: list[tuple[Role, str, tuple[tuple[str, int, int], ...]]] = []
    for (spk, text), (_, delexed_text) in zip(original, delexed):
        spk = spk.lower()
        if spk == "action":
            continue
        role = Role.USER if spk == "customer" else Role.ASSISTANT
        report = align_placeholders(text, delexed_text)
        for name, placeholder in report.unmatched:
            log.warning("placeholder %s failed to align in %s; dropped",
                        placeholder, raw.get("convo_id"))
        rows.append((role, text, report.matched))
    turns = _merge_consecutive(rows)

    scenario = raw.get("scenario") or {}
    extra = _flat_strings({k: v for k, v in scenario.items() if k not in ("flow", "subflow", "prompt")})
    covered = {name for t in turns for name, _, _ in t.slot_spans}
    pending = [(name.split(".")[-1], value) for name, value in extra if name.split(".")[-1] not in covered]
    out_turns: list[Turn] = []
    remaining = list(pending)
    for t in turns:
        if t.role is Role.USER and remaining:
            report = locate_slot_spans(t.text, remaining)
            if report.matched:
                keep = [
                    (n, s, e)
                    for n, s, e in report.matched
                    if all(not (s < e0 and s0 < e) for _, s0, e0 in t.slot_spans)
                ]
                t = t.with_(slot_spans=t.slot_spans + tuple(keep))
                found = {n for n, _, _ in keep}
                remaining = [(n, v) for n, v in remaining if n not in found]
        out_turns.append(t)

    constraints = {name.split(".")[-1]: value for name, value in extra}
    sub_goals = (
        SubGoal(
            domain=str(scenario.get("flow") or "support"),
            intent=str(scenario.get("subflow") or "resolve_issue"),
            constraints=constraints,
        ),
    )
    text = str(scenario.get("prompt") or template_goal_text(sub_goals))
    return Dialogue(
        dialogue_id=str(raw.get("convo_id") or raw["dialogue_id"]),
        source="abcd",
        goal=Goal(text=text, sub_goals=sub_goals),
        turns=tuple(out_turns),
    )


# --- EmoWOZ / SpokenWOZ ------------------------------------------------------------


_TAG_RE = re.compile(r"<[^>]+>")


def _woz_goal(raw_goal: Mapping[str, Any]) -> Goal:
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
    if not sub_goals:
        sub_goals.append(SubGoal(domain="general", intent="complete_task"))
    message = raw_goal.get("message") or []
    if isinstance(message, str):
        message = [message]
    text = _TAG_RE.sub("", " ".join(message)).strip() or template_goal_text(sub_goals)
    return Goal(text=text, sub_goals=tuple(sub_goals))


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
    goal = _woz_goal(raw.get("goal") or {})
    turns: list[Turn] = []
    prev_state: dict[str, str] = {}
    for i, entry in enumerate(raw["log"]):
        role = Role.USER if i % 2 == 0 else Role.ASSISTANT
        text = str(entry["text"]).strip()
        spans: tuple[tuple[str, int, int], ...] = ()
        emotion = _emotion_of(entry) if role is Role.USER else None
        state: dict[str, str] | None = None
        if role is Role.ASSISTANT:
            state = _flatten_metadata(entry.get("metadata") or {}) or None
            if state:
                new_values = [(k, v) for k, v in state.items() if prev_state.get(k) != v]
                prev_state = state
                if new_values and turns:
                    user_turn = turns[-1]
                    report = locate_slot_spans(user_turn.text, new_values)
                    for name, value in report.unmatched:
                        log.debug("state value %s=%r not in user turn; no span", name, value)
                    if report.matched:
                        turns[-1] = user_turn.with_(slot_spans=user_turn.slot_spans + report.matched)
        turns.append(Turn(index=i, role=role, text=text, slot_spans=spans, emotion=emotion, state=state))
    return Dialogue(
        dialogue_id=str(raw.get("dialogue_id") or raw.get("id")),
        source=source,
        goal=goal,
        turns=tuple(turns),
    )
