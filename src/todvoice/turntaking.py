"""Streaming three-class turn-taking decisions.

Each assistant-side token stream carries per-frame probabilities over
{listen, turnend, bargein}. A strategy watches a sliding window of the last W
frames and fires at most once per stream; fire outcomes are scored against the
final-W trigger window as correct / early / confused / missed, and a binary
collapse merges correct with confused. One W, TRIGGER_WINDOW, serves both, and
the default thresholds are set for it (prob_threshold's 5.0 is a window sum).

run_stream is the streaming form: it reads frames one at a time, keeps the
last W, and reads no frame after the fire. evaluate_set and sweep_thresholds
score each whole stream once (stream_scores): every frame's term is read once,
and the window ending at each frame folds the same terms in the same order as
run_stream, so both fire exactly where the replay does.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from operator import mul
from pathlib import Path
from typing import Iterable, Sequence

from .checked import parse_json

FIRE_CLASSES = ("turnend", "bargein")
STRATEGY_NAMES = ("argmax", "prob_threshold", "tail_threshold", "listen_relative", "linear_weighted")

TRIGGER_WINDOW = 6

DEFAULT_THRESHOLDS: dict[str, tuple[float, float]] = {
    "prob_threshold": (5.0, 0.5),
    "tail_threshold": (2.7, 0.3),
    "listen_relative": (3.0, 0.3),
    "linear_weighted": (0.45, 0.05),
}

_SUM_TOL = 1e-6

_FIELD_OF = {"listen": "p_listen", "turnend": "p_turnend", "bargein": "p_bargein"}


@dataclass(frozen=True)
class ProbFrame:
    p_listen: float
    p_turnend: float
    p_bargein: float

    def __post_init__(self) -> None:
        for p in (self.p_listen, self.p_turnend, self.p_bargein):
            try:
                in_range = not isinstance(p, bool) and 0.0 <= p <= 1.0
            except TypeError:
                in_range = False
            if not in_range:
                raise ValueError(f"probability {p!r} is not a number in [0, 1]")
        total = self.p_listen + self.p_turnend + self.p_bargein
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"frame probabilities sum to {total}, not 1")

    def p(self, cls: str) -> float:
        return getattr(self, _FIELD_OF[cls])


def frame_argmax(f: ProbFrame) -> str:
    """Most probable class; ties favor listen, then turnend."""
    best, best_p = "listen", f.p_listen
    for cls in FIRE_CLASSES:
        if f.p(cls) > best_p:
            best, best_p = cls, f.p(cls)
    return best


@dataclass(frozen=True)
class StrategyConfig:
    strategy: str
    t_turnend: float | None = None
    t_bargein: float | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGY_NAMES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy == "argmax":
            if self.t_turnend is not None or self.t_bargein is not None:
                raise ValueError("argmax takes no thresholds")
            return
        te, bi = DEFAULT_THRESHOLDS[self.strategy]
        if self.t_turnend is None:
            object.__setattr__(self, "t_turnend", te)
        if self.t_bargein is None:
            object.__setattr__(self, "t_bargein", bi)
        if self.t_turnend <= 0 or self.t_bargein <= 0:
            raise ValueError("thresholds must be positive")
        if not self.t_bargein < self.t_turnend:
            raise ValueError("the barge-in threshold must sit below the turn-end threshold")


@dataclass(frozen=True)
class FireDecision:
    fired: bool
    fire_class: str | None = None
    frame_index: int | None = None

    def __post_init__(self) -> None:
        if self.fired:
            if self.fire_class not in FIRE_CLASSES:
                raise ValueError("a fire decision needs a non-listen class")
            if self.frame_index is None or self.frame_index < 0:
                raise ValueError("a fire decision needs a frame index")
        elif self.fire_class is not None or self.frame_index is not None:
            raise ValueError("a listen decision carries no class or frame")


NO_FIRE = FireDecision(False)


def _terms(strategy: str, frames: Sequence[ProbFrame]) -> list[list[float | None]]:
    """Each frame's term in a window score for each of FIRE_CLASSES, in frame order.

    A term depends on its frame alone, so a stream's terms are read once and
    every window is a slice of them. tail_threshold's None breaks a run."""
    if strategy == "tail_threshold":
        best = [frame_argmax(f) for f in frames]  # once per frame, for both classes
        return [[f.p(cls) if b == cls else None for f, b in zip(frames, best)] for cls in FIRE_CLASSES]
    attrs = [_FIELD_OF[cls] for cls in FIRE_CLASSES]
    if strategy == "listen_relative":
        return [[max(0.0, getattr(f, attr) - f.p_listen) for f in frames] for attr in attrs]
    return [[getattr(f, attr) for f in frames] for attr in attrs]


def _linear_weighted(terms: Sequence[float]) -> float:
    n = len(terms)
    return sum(map(mul, range(1, n + 1), terms)) / (n * (n + 1) / 2)


def _longest_run(terms: Sequence[float | None]) -> float:
    """Sum of the longest unbroken run; the larger sum wins a tie in length."""
    best_len, best_sum = 0, 0.0
    run_len, run_sum = 0, 0.0
    for p in terms:
        if p is None:
            run_len, run_sum = 0, 0.0
        else:
            run_len += 1
            run_sum += p
        if run_len > best_len or (run_len == best_len and run_sum > best_sum):
            best_len, best_sum = run_len, run_sum
    return best_sum


# How each strategy folds one window's terms (oldest first) into its score.
_AGGREGATE = {
    "prob_threshold": sum,
    "tail_threshold": _longest_run,
    "listen_relative": sum,
    "linear_weighted": _linear_weighted,
}


def window_scores(strategy: str, window: Sequence[ProbFrame]) -> tuple[float, float]:
    """Turn-end and barge-in scores over the current window (oldest first)."""
    return tuple(map(_AGGREGATE[strategy], _terms(strategy, window)))


def stream_scores(frames: Sequence[ProbFrame], strategy: str) -> tuple[list[float], list[float]]:
    """Turn-end and barge-in scores of the window ending at each frame.

    Each equals the window_scores run_stream computes at that frame: the
    same terms, folded in the same order."""
    aggregate = _AGGREGATE[strategy]
    te, bi = _terms(strategy, frames)
    starts = [max(0, i - TRIGGER_WINDOW + 1) for i in range(len(frames))]
    return ([aggregate(te[s: i + 1]) for i, s in enumerate(starts)],
            [aggregate(bi[s: i + 1]) for i, s in enumerate(starts)])


def run_stream(frames: Iterable[ProbFrame], cfg: StrategyConfig) -> FireDecision:
    """The first fire over frames, or NO_FIRE. Frames are read one at a time
    and none after the fire, so a live caller can pass a generator."""
    window: deque[ProbFrame] = deque(maxlen=TRIGGER_WINDOW)
    thresholds = (cfg.t_turnend, cfg.t_bargein)
    for i, frame in enumerate(frames):
        if cfg.strategy == "argmax":
            cls = frame_argmax(frame)
            if cls != "listen":
                return FireDecision(True, cls, i)
            continue
        window.append(frame)
        # turn-end first: its threshold is the higher one, and ties resolve to it
        for cls, score, threshold in zip(FIRE_CLASSES, window_scores(cfg.strategy, window), thresholds):
            if score > threshold:
                return FireDecision(True, cls, i)
    return NO_FIRE


def trigger_window_of(n_frames: int) -> tuple[int, int]:
    """0-based inclusive [t_s, t_e] covering the final trigger frames."""
    return max(0, n_frames - TRIGGER_WINDOW), n_frames - 1


def classify_outcome(fire: FireDecision, truth: str, trigger_window: tuple[int, int]) -> str:
    if truth not in FIRE_CLASSES:
        raise ValueError(f"truth must be one of {FIRE_CLASSES}")
    if not fire.fired:
        return "missed"
    t_s, _ = trigger_window
    if fire.frame_index < t_s:
        return "early"
    return "correct" if fire.fire_class == truth else "confused"


OUTCOME_CLASSES = ("correct", "early", "confused", "missed")


@dataclass(frozen=True)
class OutcomeCounts:
    correct: int = 0
    early: int = 0
    confused: int = 0
    missed: int = 0

    @property
    def total(self) -> int:
        return self.correct + self.early + self.confused + self.missed

    def pct(self, outcome: str) -> float:
        if self.total == 0:
            return 0.0
        return 100.0 * getattr(self, outcome) / self.total

    @property
    def binary_accuracy(self) -> float:
        """Binary collapse: a fire in the window counts regardless of class."""
        return self.pct("correct") + self.pct("confused")

    def as_percentages(self) -> dict[str, float]:
        out = {name: self.pct(name) for name in OUTCOME_CLASSES}
        out["binary"] = self.binary_accuracy
        return out


@dataclass(frozen=True)
class OutcomeReport:
    per_truth: dict[str, OutcomeCounts] = field(default_factory=dict)

    def as_table(self) -> dict[str, dict[str, float]]:
        return {truth: counts.as_percentages() for truth, counts in self.per_truth.items()}


def _tally(outcomes: Iterable[tuple[str, str]]) -> OutcomeReport:
    """Count (truth, outcome) pairs; truths keep their first-seen order."""
    tallies: dict[str, dict[str, int]] = {}
    for truth, outcome in outcomes:
        tallies.setdefault(truth, {name: 0 for name in OUTCOME_CLASSES})[outcome] += 1
    return OutcomeReport({truth: OutcomeCounts(**counts) for truth, counts in tallies.items()})


def _crossings(
    frames: Sequence[ProbFrame], strategy: str, te_values: Iterable[float], bi_values: Iterable[float]
) -> tuple[dict[float, int], dict[float, int]]:
    """For each threshold value, the first frame whose turn-end (barge-in)
    score exceeds it, or len(frames) if none does.

    That frame is where the running maximum of the scores first exceeds the
    value, so each value costs one bisection."""
    max_te, max_bi = (list(accumulate(scores, max)) for scores in stream_scores(frames, strategy))
    return ({t: bisect_right(max_te, t) for t in te_values},
            {t: bisect_right(max_bi, t) for t in bi_values})


def _fire_at(i_te: int, i_bi: int, n_frames: int) -> FireDecision:
    """The fire of a stream whose scores first cross at i_te and i_bi."""
    i = min(i_te, i_bi)
    if i == n_frames:
        return NO_FIRE
    # turn-end first: on a frame where both cross, the replay fires turn-end
    return FireDecision(True, "turnend" if i_te <= i_bi else "bargein", i)


def _fire(frames: Sequence[ProbFrame], cfg: StrategyConfig) -> FireDecision:
    """Where run_stream fires, from the stream's scores."""
    if cfg.strategy == "argmax":
        return run_stream(frames, cfg)  # no window, so nothing to score ahead
    at_te, at_bi = _crossings(frames, cfg.strategy, (cfg.t_turnend,), (cfg.t_bargein,))
    return _fire_at(at_te[cfg.t_turnend], at_bi[cfg.t_bargein], len(frames))


def evaluate_set(
    streams: Iterable[tuple[Sequence[ProbFrame], str]], cfg: StrategyConfig
) -> OutcomeReport:
    return _tally(
        (truth, classify_outcome(_fire(frames, cfg), truth, trigger_window_of(len(frames))))
        for frames, truth in streams
    )


def sweep_thresholds(
    streams: Iterable[tuple[Sequence[ProbFrame], str]],
    strategy: str,
    te_values: Sequence[float],
    bi_values: Sequence[float],
) -> list[dict[str, object]]:
    """evaluate_set's table for every pair with 0 < t_bargein < t_turnend.

    Each stream is scored once, in O(frames * window), and each distinct
    threshold value then costs one bisection per stream. Pairs that put every
    stream's crossings at the same frames share one tally; each row gets its
    own copy of the table. Inverted pairs are skipped.
    """
    cfgs = [
        StrategyConfig(strategy, t_turnend=te, t_bargein=bi)
        for te in te_values
        for bi in bi_values
        if 0 < bi < te
    ]
    if not cfgs:
        return []
    te_set, bi_set = {c.t_turnend for c in cfgs}, {c.t_bargein for c in cfgs}
    scored = [(len(frames), truth, *_crossings(frames, strategy, te_set, bi_set)) for frames, truth in streams]
    # per threshold value, the frame where each stream first crosses it
    te_at = {t: tuple(at_te[t] for _, _, at_te, _ in scored) for t in te_set}
    bi_at = {t: tuple(at_bi[t] for _, _, _, at_bi in scored) for t in bi_set}
    tables: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[str, dict[str, float]]] = {}
    rows: list[dict[str, object]] = []
    for cfg in cfgs:
        key = te_at[cfg.t_turnend], bi_at[cfg.t_bargein]
        if key not in tables:
            tables[key] = _tally(
                (truth, classify_outcome(_fire_at(i_te, i_bi, n), truth, trigger_window_of(n)))
                for i_te, i_bi, (n, truth, _, _) in zip(*key, scored)
            ).as_table()
        table = {truth: dict(row) for truth, row in tables[key].items()}
        rows.append({"t_turnend": cfg.t_turnend, "t_bargein": cfg.t_bargein, "table": table})
    return rows


# --- stream I/O ----------------------------------------------------------------


@dataclass(frozen=True)
class LabeledStream:
    stream_id: str
    truth: str
    frames: tuple[ProbFrame, ...]


def read_streams(path: str | Path) -> list[LabeledStream]:
    """Newline-delimited records {stream_id, t, truth, p_listen, p_turnend, p_bargein}.

    A bad record raises ValueError naming the file and its line."""
    grouped: dict[str, list[tuple[float, ProbFrame]]] = {}
    truths: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            rec = parse_json(path, ValueError, line, line_no - 1)
            try:
                frame = ProbFrame(rec["p_listen"], rec["p_turnend"], rec["p_bargein"])
                sid = str(rec.get("stream_id", "0"))
                t = rec.get("t", line_no)
                if isinstance(t, bool) or not isinstance(t, (int, float)) or not math.isfinite(t):
                    raise ValueError(f"t {t!r} is not a finite number")
                grouped.setdefault(sid, []).append((t, frame))
                if "truth" in rec:
                    if rec["truth"] not in FIRE_CLASSES:
                        raise ValueError(f"truth must be 'turnend' or 'bargein', not {rec['truth']!r}")
                    if truths.setdefault(sid, rec["truth"]) != rec["truth"]:
                        raise ValueError(f"stream {sid} carries conflicting truth labels")
            except KeyError as exc:
                raise ValueError(f"{path}:{line_no}: missing {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
    out: list[LabeledStream] = []
    for sid, rows in grouped.items():
        if sid not in truths:
            raise ValueError(f"stream {sid} has no truth label")
        rows.sort(key=lambda r: r[0])
        out.append(LabeledStream(sid, truths[sid], tuple(frame for _, frame in rows)))
    return out


def format_report(report: OutcomeReport, cfg: StrategyConfig) -> dict[str, object]:
    return {
        "strategy": cfg.strategy,
        "window": TRIGGER_WINDOW,
        "thresholds": {"turnend": cfg.t_turnend, "bargein": cfg.t_bargein},
        "rows": report.as_table(),
    }
