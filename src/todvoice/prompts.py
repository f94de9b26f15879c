"""Prompt payloads sent to the generator/judge chat client.

Each builder renders a self-contained instruction string. The first line is a
stable task tag; the stub client dispatches on it, and real endpoints simply
receive the full text.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .corpus import COR_CONNECTORS, BargeInStyle, BargeInType, Emotion, Turn

TASK_INTERRUPT_GENERATE = "Task: insert a user interruption"
TASK_INTERRUPT_JUDGE = "Task: judge interruption applicability"
TASK_EMOTION = "Task: label the emotional tone"
TASK_SELF_CORRECTION = "Task: add a self-correction"
TASK_RESTART = "Task: add a restarted utterance"
TASK_COVERAGE = "Task: select covered goal items"

_TYPE_BRIEF = {
    BargeInType.ERROR_RECOVERY: (
        "error recovery: the assistant's in-progress utterance contains a factual error about "
        "a value the user already provided, and the user cuts in to have it corrected"
    ),
    BargeInType.CLARIFICATION: (
        "clarification: the assistant's in-progress utterance is hard to follow (dense, fast, "
        "or using an unfamiliar term), and the user cuts in to ask about it"
    ),
    BargeInType.EFFICIENCY: (
        "efficiency: the assistant's in-progress utterance has already given the user enough, "
        "and the user cuts in to acknowledge and move the conversation along"
    ),
}

_STYLE_BRIEF = {
    BargeInStyle.IMPLICIT: (
        'implicit: a minimal interjection or backchannel that does not spell out the reason '
        '(for example "Uh-huh." or "Wait, no.")'
    ),
    BargeInStyle.RAW: (
        'raw: a direct reaction that names the problem or acknowledgment without resolving it '
        '(for example "No, that\'s wrong." or "Sorry, what was that?" or "Got it, that works.")'
    ),
    BargeInStyle.INTERPRETED: (
        'interpreted: a fully articulated reaction that states the specific content '
        '(for example "No, I said 4 people, not 2." or "What\'s a PNR?" or '
        '"Yes, Sunday would be better for me.")'
    ),
}


def transcript(turns: Iterable[Turn]) -> str:
    """One "role: text" line per turn."""
    return "\n".join([f"{t.role.value}: {t.text}" for t in turns])


def context_string(prior: Sequence[Turn]) -> str:
    """The transcript of the last six turns before an utterance."""
    return transcript(prior[-6:])


def _state_block(state: dict[str, str] | None) -> str:
    return "\n".join(f"  {k}: {v}" for k, v in (state or {}).items()) or "  (empty)"


def interruption_generation_prompt(
    kind: BargeInType,
    style: BargeInStyle,
    current_exchange: str,
    context_str: str,
    current_state: dict[str, str] | None,
) -> str:
    slot_rules = ""
    if kind is BargeInType.ERROR_RECOVERY:
        slot_rules = (
            "The truncated assistant turn must voice a wrong value for exactly one slot from the "
            "current state. Report it under \"erroneous_slots\" and the state-true value under "
            "\"corrected_slots\" (same keys in both).\n"
        )
    return (
        f"{TASK_INTERRUPT_GENERATE}\n"
        f"Interruption kind - {_TYPE_BRIEF[kind]}.\n"
        f"Interruption style - {_STYLE_BRIEF[style]}.\n"
        "Rewrite the exchange so the user barges in while the assistant is mid-utterance.\n"
        "Produce exactly three new turns, in order:\n"
        "1. an assistant turn cut off mid-sentence, ending with the literal token <bargein>\n"
        "2. the user's interruption, written in the style above\n"
        "3. a short assistant recovery turn that hands the floor back\n"
        f"{slot_rules}"
        "The original assistant response will still follow your turns, so do not repeat it.\n"
        "Respond with JSON only: {\"turns\": [{\"role\": ..., \"text\": ...}, ...], "
        "\"erroneous_slots\": {...}, \"corrected_slots\": {...}}.\n\n"
        f"Dialogue context:\n{context_str}\n\n"
        f"Current exchange to transform:\n{current_exchange}\n\n"
        f"Current state:\n{_state_block(current_state)}\n"
    )


def interruption_validity_prompt(
    kind: BargeInType,
    current_exchange: str,
    context_str: str,
    current_state: dict[str, str] | None,
) -> str:
    return (
        f"{TASK_INTERRUPT_JUDGE}\n"
        f"Interruption kind - {_TYPE_BRIEF[kind]}.\n"
        "Can this kind of interruption be applied naturally to the exchange below, without "
        "inventing facts that contradict the dialogue? Answer with a single word: yes or no.\n\n"
        f"Dialogue context:\n{context_str}\n\n"
        f"Current exchange:\n{current_exchange}\n\n"
        f"Current state:\n{_state_block(current_state)}\n"
    )


# Each emotion label's keywords: the judge prompt lists them, and synthesis
# phrases its style instruction with one of them.
KEYWORDS: dict[Emotion, tuple[str, ...]] = {
    Emotion.NEUTRAL: ("calm", "indifferent", "patient", "relaxed"),
    Emotion.FEARFUL: ("fearful", "shocked", "surprised"),
    Emotion.DISSATISFIED: ("angry", "contempt", "disgusted", "defiant"),
    Emotion.APOLOGETIC: ("compassionate", "selfless", "humble"),
    Emotion.ABUSIVE: ("commanding", "authoritative", "merciless", "loud", "vengeful"),
    Emotion.EXCITED: ("adventurous", "energetic", "passionate", "curious", "creative", "joyful"),
    Emotion.SATISFIED: ("proud", "hopeful", "happy", "cheerful"),
}

EMOTION_LABELS_BLOCK = "\n".join(f"{int(e)} {e.label_name}: {', '.join(KEYWORDS[e])}" for e in Emotion)


def emotion_prompt(context_str: str, utterance: str) -> str:
    return (
        f"{TASK_EMOTION}\n"
        "Classify the emotional tone of the user's utterance given the dialogue so far.\n"
        f"Labels:\n{EMOTION_LABELS_BLOCK}\n"
        "Respond with only the number.\n\n"
        f"Dialogue so far:\n{context_str}\n\n"
        f"User utterance: {utterance}\n"
    )


def self_correction_prompt(utterance: str, slot_name: str, slot_value: str) -> str:
    return (
        f"{TASK_SELF_CORRECTION}\n"
        "Rewrite the utterance so the speaker first says a plausible wrong value X for the slot, "
        "then corrects themselves to its value Y. Insert X and one of these connectors just "
        "before Y:\n"
        + "".join(f'  "X{conn}Y"\n' for conn in COR_CONNECTORS)
        + "Keep the rest of the utterance, Y included, exactly as it is.\n"
        "Respond with the rewritten utterance only.\n\n"
        f"Slot: {slot_name} = {slot_value}\n"
        f"Utterance: {utterance}\n"
    )


def restart_prompt(utterance: str) -> str:
    return (
        f"{TASK_RESTART}\n"
        "Rewrite the utterance so the speaker abandons an incomplete fragment and restarts. "
        "The incomplete fragment should be 2-5 words, followed by a pause written as \"...\" "
        "or \"—\", then the whole utterance exactly as it is.\n"
        "Respond with the rewritten utterance only.\n\n"
        f"Utterance: {utterance}\n"
    )


def coverage_prompt(items: list[str], context_str: str, utterance: str) -> str:
    numbered = "\n".join(f"{i + 1}. {item}" for i, item in enumerate(items))
    return (
        f"{TASK_COVERAGE}\n"
        "Below are the goal items not yet mentioned, the dialogue so far, and the user's new "
        "utterance. List the numbers of the items the utterance explicitly mentions, as a "
        "bracketed list like [1, 3]. Count only explicit mentions by the user. If none, "
        "respond with [].\n\n"
        f"Remaining goal items:\n{numbered}\n\n"
        f"Dialogue so far:\n{context_str}\n\n"
        f"User utterance: {utterance}\n"
    )
