"""Streaming three-class turn-taking decisions.

Each assistant-side token stream carries per-frame probabilities over
{listen, turnend, bargein}. A strategy watches a sliding window of the last W
frames and fires at most once per stream; fire outcomes are scored against the
final-W trigger window as correct / early / confused / missed, and a binary
collapse merges correct with confused. One W, TRIGGER_WINDOW, serves both, and
the default thresholds are set for it (prob_threshold's 5.0 is a window sum).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
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


class ContractViolation(RuntimeError):
    pass


@dataclass(frozen=True)
class ProbFrame:
    p_listen: float
    p_turnend: float
    p_bargein: float

    def __post_init__(self) -> None:
        for p in (self.p_listen, self.p_turnend, self.p_bargein):
            try:
                in_range = 0.0 <= p <= 1.0
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


def window_score(strategy: str, window: Sequence[ProbFrame], cls: str) -> float:
    """Aggregate score for one class over the current window (oldest first)."""
    if strategy == "prob_threshold":
        return sum(f.p(cls) for f in window)
    if strategy == "tail_threshold":
        best_len, best_sum = 0, 0.0
        run_len, run_sum = 0, 0.0
        for f in window:
            if frame_argmax(f) == cls:
                run_len += 1
                run_sum += f.p(cls)
            else:
                run_len, run_sum = 0, 0.0
            if run_len > best_len or (run_len == best_len and run_sum > best_sum):
                best_len, best_sum = run_len, run_sum
        return best_sum
    if strategy == "listen_relative":
        return sum(max(0.0, f.p(cls) - f.p_listen) for f in window)
    if strategy == "linear_weighted":
        n = len(window)
        denom = n * (n + 1) / 2
        return sum((k + 1) * f.p(cls) for k, f in enumerate(window)) / denom
    raise ValueError(f"no window score for strategy {strategy!r}")


def _decide(cfg: StrategyConfig, window: Sequence[ProbFrame], frame_index: int) -> FireDecision:
    if cfg.strategy == "argmax":
        cls = frame_argmax(window[-1])
        if cls != "listen":
            return FireDecision(True, cls, frame_index)
        return NO_FIRE
    # turn-end first: its threshold is the higher one, and ties resolve to it
    for cls, threshold in (("turnend", cfg.t_turnend), ("bargein", cfg.t_bargein)):
        if window_score(cfg.strategy, window, cls) > threshold:
            return FireDecision(True, cls, frame_index)
    return NO_FIRE


class StrategyState:
    """Single-stream accumulator; step() raises once the stream has fired."""

    def __init__(self, cfg: StrategyConfig) -> None:
        self.cfg = cfg
        self._window: deque[ProbFrame] = deque(maxlen=TRIGGER_WINDOW)
        self._n = 0
        self.fired: FireDecision | None = None

    def step(self, frame: ProbFrame) -> FireDecision:
        if self.fired is not None:
            raise ContractViolation("stream already fired; no further frames accepted")
        self._window.append(frame)
        decision = _decide(self.cfg, self._window, self._n)
        self._n += 1
        if decision.fired:
            self.fired = decision
        return decision


def run_stream(frames: Iterable[ProbFrame], cfg: StrategyConfig) -> FireDecision:
    state = StrategyState(cfg)
    for frame in frames:
        decision = state.step(frame)
        if decision.fired:
            return decision
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


def evaluate_set(
    streams: Iterable[tuple[Sequence[ProbFrame], str]], cfg: StrategyConfig
) -> OutcomeReport:
    return _tally(
        (truth, classify_outcome(run_stream(frames, cfg), truth, trigger_window_of(len(frames))))
        for frames, truth in streams
    )


def _score_maxima(frames: Sequence[ProbFrame], strategy: str) -> tuple[list[float], list[float]]:
    """Running maxima of the turn-end and barge-in window scores, one per frame.

    Every score is a fresh window_score over the window StrategyState would
    hold at that frame, so a threshold t is first exceeded at frame
    bisect_right(maxima, t), exactly where the streaming replay fires.
    """
    max_te: list[float] = []
    max_bi: list[float] = []
    te = bi = float("-inf")
    for i in range(len(frames)):
        win = frames[max(0, i - TRIGGER_WINDOW + 1): i + 1]
        te = max(te, window_score(strategy, win, "turnend"))
        bi = max(bi, window_score(strategy, win, "bargein"))
        max_te.append(te)
        max_bi.append(bi)
    return max_te, max_bi


def sweep_thresholds(
    streams: Iterable[tuple[Sequence[ProbFrame], str]],
    strategy: str,
    te_values: Sequence[float],
    bi_values: Sequence[float],
) -> list[dict[str, object]]:
    """evaluate_set's table for every pair with 0 < t_bargein < t_turnend.

    Each stream is scored once, in O(frames * window); a pair then costs two
    bisections per stream. Inverted pairs are skipped.
    """
    cfgs = [
        StrategyConfig(strategy, t_turnend=te, t_bargein=bi)
        for te in te_values
        for bi in bi_values
        if 0 < bi < te
    ]
    if not cfgs:
        return []
    traces = [(*_score_maxima(frames, strategy), truth) for frames, truth in streams]
    rows: list[dict[str, object]] = []
    for cfg in cfgs:
        outcomes = []
        for max_te, max_bi, truth in traces:
            i_te = bisect_right(max_te, cfg.t_turnend)
            i_bi = bisect_right(max_bi, cfg.t_bargein)
            i, n = min(i_te, i_bi), len(max_te)
            # turn-end first: on a frame where both cross, the replay fires turn-end
            fire = NO_FIRE if i == n else FireDecision(True, "turnend" if i_te <= i_bi else "bargein", i)
            outcomes.append((truth, classify_outcome(fire, truth, trigger_window_of(n))))
        table = _tally(outcomes).as_table()
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
                if not isinstance(t, (int, float)) or not math.isfinite(t):
                    raise ValueError(f"t {t!r} is not a finite number")
                grouped.setdefault(sid, []).append((t, frame))
                if "truth" in rec:
                    prev = truths.setdefault(sid, rec["truth"])
                    if prev != rec["truth"]:
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
