"""Dialogue-quality metrics: WER, goal coverage (GA/SMR), slot-disclosure
curves, final-turn slot F1, speaker similarity, and corpus statistics."""

from __future__ import annotations

import logging
import math
import re
import statistics
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .clients import ChatClient
from . import prompts
from .corpus import Dialogue, Goal, Role
from .textnorm import normalize_text

log = logging.getLogger(__name__)


# --- word error rate ------------------------------------------------------------


def edit_distance(ref: Sequence[str], hyp: Sequence[str]) -> int:
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (0 if r == h else 1),
            )
        prev = cur
    return prev[-1]


# --- goal coverage ----------------------------------------------------------------


@dataclass(frozen=True)
class GoalItem:
    kind: str  # "constraint" | "request"
    domain: str
    slot: str
    value: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("constraint", "request"):
            raise ValueError(f"unknown goal item kind {self.kind!r}")
        if (self.kind == "constraint") != (self.value is not None):
            raise ValueError("constraints carry a value; requests do not")

    def render(self) -> str:
        if self.kind == "constraint":
            return f"{self.domain} {self.slot} = {self.value}"
        return f"request: {self.domain} {self.slot}"


def goal_items(goal: Goal) -> tuple[GoalItem, ...]:
    items: list[GoalItem] = []
    for sg in goal.sub_goals:
        for slot in sorted(sg.constraints):
            items.append(GoalItem("constraint", sg.domain, slot, sg.constraints[slot]))
        for slot in sorted(sg.requests):
            items.append(GoalItem("request", sg.domain, slot))
    return tuple(items)


@dataclass(frozen=True)
class GoalCoverageState:
    items: tuple[GoalItem, ...]
    covered: tuple[tuple[int, GoalItem], ...] = ()
    turns_seen: int = 0

    def remaining(self) -> tuple[GoalItem, ...]:
        done = {item for _, item in self.covered}
        return tuple(item for item in self.items if item not in done)

    @property
    def complete(self) -> bool:
        return not self.remaining()


_BRACKET_RE = re.compile(r"\[([^\[\]]*)\]")


def parse_selection(reply: str) -> list[int] | None:
    m = _BRACKET_RE.search(reply)
    if not m:
        return None
    body = m.group(1).strip()
    if not body:
        return []
    parts = [p.strip() for p in body.split(",")]
    if not all(re.fullmatch(r"\d+", p) for p in parts):
        return None
    return [int(p) for p in parts]


def judge_turn_coverage(
    state: GoalCoverageState, history: str, utterance: str, judge: ChatClient
) -> GoalCoverageState:
    """Ask the judge which remaining items this user turn mentions; no usable
    reply (see `ChatClient.ask`) counts as an empty selection."""
    turn_ordinal = state.turns_seen + 1
    remaining = state.remaining()
    if not remaining:
        return replace(state, turns_seen=turn_ordinal)
    prompt = prompts.coverage_prompt([item.render() for item in remaining], history, utterance)
    what = f"coverage judge on user turn {turn_ordinal} (falls back to no items)"
    selection = judge.ask(prompt, parse_selection, what) or []
    newly: list[GoalItem] = []
    for i in selection:
        if 1 <= i <= len(remaining) and remaining[i - 1] not in newly:
            newly.append(remaining[i - 1])
    covered = state.covered + tuple((turn_ordinal, item) for item in newly)
    return replace(state, covered=covered, turns_seen=turn_ordinal)


def evaluate_dialogue_coverage(d: Dialogue, judge: ChatClient) -> GoalCoverageState:
    state = GoalCoverageState(items=goal_items(d.goal))
    # each turn rendered once: the first i lines joined are transcript(d.turns[:i])
    lines = [prompts.transcript([t]) for t in d.turns]
    for i, t in enumerate(d.turns):
        if t.role is Role.USER:
            state = judge_turn_coverage(state, "\n".join(lines[:i]), t.text, judge)
    return state


@dataclass(frozen=True)
class GaSmr:
    ga: float
    smr: float
    smr_constraints: float
    smr_requests: float


def _micro_rate(covered: int, total: int) -> float:
    return covered / total if total else 1.0


def ga_smr(states: Sequence[GoalCoverageState]) -> GaSmr:
    if not states:
        return GaSmr(1.0, 1.0, 1.0, 1.0)
    ga = sum(1 for s in states if s.complete) / len(states)
    tallies = {kind: [0, 0] for kind in ("constraint", "request")}
    for s in states:
        done = {item for _, item in s.covered}
        for item in s.items:
            tallies[item.kind][1] += 1
            if item in done:
                tallies[item.kind][0] += 1
    covered_all = sum(v[0] for v in tallies.values())
    total_all = sum(v[1] for v in tallies.values())
    return GaSmr(
        ga=ga,
        smr=_micro_rate(covered_all, total_all),
        smr_constraints=_micro_rate(*tallies["constraint"]),
        smr_requests=_micro_rate(*tallies["request"]),
    )


def disclosure_curve(states: Sequence[GoalCoverageState]) -> list[float]:
    """Mean fraction of goal items disclosed by user turn t (1-based).

    Dialogues shorter than t contribute their final coverage, so the mean is
    monotone non-decreasing.
    """
    usable = [s for s in states if s.items]
    if not usable:
        return []
    horizon = max(s.turns_seen for s in usable)
    curve: list[float] = []
    for t in range(1, horizon + 1):
        vals = [
            sum(1 for ordinal, _ in s.covered if ordinal <= min(t, s.turns_seen)) / len(s.items)
            for s in usable
        ]
        curve.append(sum(vals) / len(vals))
    return curve


# --- belief-state F1 ---------------------------------------------------------------


def normalize_slot_value(value: str) -> str:
    return re.sub(r"\s+", " ", value.strip().lower())


@dataclass(frozen=True)
class Prf:
    precision: float
    recall: float
    f1: float


def _prf(tp: int, n_pred: int, n_gold: int) -> Prf:
    p = tp / n_pred if n_pred else 0.0
    r = tp / n_gold if n_gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return Prf(p, r, f1)


def _tp_count(pred: Mapping[str, str], gold: Mapping[str, str]) -> int:
    return sum(
        1
        for name, value in pred.items()
        if name in gold and normalize_slot_value(value) == normalize_slot_value(gold[name])
    )


def slot_f1_micro(pairs: Iterable[tuple[Mapping[str, str], Mapping[str, str]]]) -> Prf:
    tp = n_pred = n_gold = 0
    for pred, gold in pairs:
        tp += _tp_count(pred, gold)
        n_pred += len(pred)
        n_gold += len(gold)
    return _prf(tp, n_pred, n_gold)


# --- speaker similarity ------------------------------------------------------------


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) != len(b):
        raise ValueError("vectors must share a dimension")
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine undefined for a zero vector")
    return sum(x * y for x, y in zip(a, b)) / (na * nb)


@dataclass(frozen=True)
class MeanStd:
    mean: float
    std: float
    n: int


def _mean_std(values: Sequence[float]) -> MeanStd:
    if not values:
        raise ValueError("no usable vector pairs")
    return MeanStd(statistics.fmean(values), statistics.pstdev(values), len(values))


@dataclass(frozen=True)
class SimilarityReport:
    sim_first: MeanStd
    sim_prev: MeanStd


def similarity_pairs(
    turn_vectors: Sequence[Sequence[float]],
) -> tuple[list[float], list[float]]:
    """Raw cosine pairs (anchor-to-i, previous-to-i); zero vectors excluded."""
    if len(turn_vectors) < 2:
        raise ValueError("speaker similarity needs at least two turn vectors")
    nonzero = [any(x != 0.0 for x in v) for v in turn_vectors]
    first: list[float] = []
    prev: list[float] = []
    for i in range(1, len(turn_vectors)):
        if nonzero[0] and nonzero[i]:
            first.append(cosine(turn_vectors[0], turn_vectors[i]))
        elif not nonzero[i]:
            log.warning("zero embedding at turn %d excluded from similarity", i)
        if nonzero[i - 1] and nonzero[i]:
            prev.append(cosine(turn_vectors[i - 1], turn_vectors[i]))
    if not nonzero[0]:
        log.warning("zero anchor embedding excluded from similarity")
    return first, prev


def aggregate_similarity(
    per_dialogue_vectors: Iterable[Sequence[Sequence[float]]],
) -> SimilarityReport:
    first_all: list[float] = []
    prev_all: list[float] = []
    for vectors in per_dialogue_vectors:
        first, prev = similarity_pairs(vectors)
        first_all.extend(first)
        prev_all.extend(prev)
    return SimilarityReport(_mean_std(first_all), _mean_std(prev_all))


# --- corpus statistics ----------------------------------------------------------------


def dataset_stats(corpus: Iterable[Dialogue]) -> dict[str, object]:
    """Counts dialogues, utterances, words, speakers, duration, and behaviors.

    Cross-turn counts dictation segment turns; barge-in counts interruption
    events (the interrupting user turn); disfluency counts injected events;
    emotion counts labeled user turns.
    """
    n_dialogues = n_utterances = n_words = n_crossturn = 0
    total_s = 0.0
    speakers: set[str] = set()
    bargein = Counter[str]()
    disfluency = Counter[str]()
    emotion = Counter[str]()
    for d in corpus:
        n_dialogues += 1
        speakers.update(sp.speaker_id for sp in (d.user_speaker, d.assistant_speaker) if sp is not None)
        for t in d.turns:
            n_utterances += 1
            n_words += len(t.text.split())
            if t.duration_s is not None:
                total_s += t.duration_s
            n_crossturn += t.crossturn is not None
            if t.bargein is not None and t.role is Role.USER:
                bargein[t.bargein.subtype] += 1
            disfluency.update(meta.type for meta in t.disfluency)
            if t.role is Role.USER and t.emotion is not None:
                emotion[t.emotion.label_name] += 1
    return {
        "dialogues": n_dialogues,
        "utterances": n_utterances,
        "avg_words_per_utterance": n_words / n_utterances if n_utterances else 0.0,
        "speakers": len(speakers),
        "total_duration_s": total_s,
        "total_duration_h": total_s / 3600.0,
        "behaviors": {
            "crossturn": n_crossturn,
            "bargein": bargein.total(),
            "disfluency": disfluency.total(),
            "emotion": emotion.total(),
        },
        "bargein_by_subtype": dict(sorted(bargein.items())),
        "disfluency_by_type": dict(sorted(disfluency.items())),
        "emotion_by_label": dict(sorted(emotion.items())),
    }


# --- ASR validation report ----------------------------------------------------------


@dataclass(frozen=True)
class WerCell:
    wer: float
    utterances: int


def build_wer_report(rows: Iterable[tuple[str, str, str]]) -> dict[str, WerCell]:
    """Micro-aggregated WER per accent pool plus overall.

    rows are (accent_pool, reference_text, hypothesis_text); both sides are
    normalized to spoken form before alignment.
    """
    groups: dict[str, list[int]] = {}
    for accent, ref_text, hyp_text in rows:
        ref = normalize_text(ref_text).split()
        hyp = normalize_text(hyp_text).split()
        if not ref:
            continue
        cell = groups.setdefault(accent, [0, 0, 0])
        cell[0] += edit_distance(ref, hyp)
        cell[1] += len(ref)
        cell[2] += 1
    report: dict[str, WerCell] = {}
    total_err = total_ref = total_n = 0
    for accent in sorted(groups):
        err, n_ref, n_utt = groups[accent]
        report[accent] = WerCell(err / n_ref if n_ref else 0.0, n_utt)
        total_err += err
        total_ref += n_ref
        total_n += n_utt
    report["overall"] = WerCell(total_err / total_ref if total_ref else 0.0, total_n)
    return report


def format_wer_report(report: Mapping[str, WerCell]) -> str:
    lines = [f"{'group':<10} {'wer_pct':>8} {'utterances':>11}"]
    for name, cell in report.items():
        lines.append(f"{name:<10} {100 * cell.wer:>8.2f} {cell.utterances:>11}")
    return "\n".join(lines)
