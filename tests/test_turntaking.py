"""Streaming turn-taking strategies, outcome scoring, and stream I/O."""

from __future__ import annotations

import copy
import json
import random
import re

import pytest
from conftest import mixed_streams, random_frame

from todvoice.turntaking import (
    DEFAULT_THRESHOLDS,
    OUTCOME_CLASSES,
    STRATEGY_NAMES,
    TRIGGER_WINDOW,
    ContractViolation,
    FireDecision,
    OutcomeCounts,
    OutcomeReport,
    ProbFrame,
    StrategyConfig,
    StrategyState,
    classify_outcome,
    evaluate_set,
    format_report,
    frame_argmax,
    read_streams,
    run_stream,
    stream_scores,
    sweep_thresholds,
    trigger_window_of,
    window_scores,
)


def F(listen: float, turnend: float, bargein: float) -> ProbFrame:
    return ProbFrame(listen, turnend, bargein)


LISTEN = F(1.0, 0.0, 0.0)
UNIFORM = F(1 / 3, 1 / 3, 1 / 3)


class TestProbFrame:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ProbFrame(0.5, 0.5, 0.1)

    def test_each_in_unit_interval(self):
        with pytest.raises(ValueError):
            ProbFrame(-0.1, 0.6, 0.5)

    def test_accessor(self):
        f = F(0.2, 0.3, 0.5)
        assert f.p("listen") == 0.2
        assert f.p("turnend") == 0.3
        assert f.p("bargein") == 0.5

    def test_argmax_ties_prefer_listen(self):
        assert frame_argmax(UNIFORM) == "listen"
        assert frame_argmax(F(0.0, 0.5, 0.5)) == "turnend"
        assert frame_argmax(F(0.1, 0.2, 0.7)) == "bargein"


class TestStrategyConfig:
    def test_defaults_fill_in(self):
        for name, (te, bi) in DEFAULT_THRESHOLDS.items():
            cfg = StrategyConfig(name)
            assert (cfg.t_turnend, cfg.t_bargein) == (te, bi)

    def test_default_table_values(self):
        assert DEFAULT_THRESHOLDS["prob_threshold"] == (5.0, 0.5)
        assert DEFAULT_THRESHOLDS["tail_threshold"] == (2.7, 0.3)
        assert DEFAULT_THRESHOLDS["listen_relative"] == (3.0, 0.3)
        assert DEFAULT_THRESHOLDS["linear_weighted"] == (0.45, 0.05)

    def test_argmax_rejects_thresholds(self):
        with pytest.raises(ValueError):
            StrategyConfig("argmax", t_turnend=1.0)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            StrategyConfig("midpoint")

    def test_bargein_threshold_must_sit_below_turnend(self):
        with pytest.raises(ValueError):
            StrategyConfig("prob_threshold", t_turnend=0.3, t_bargein=0.5)

    def test_partial_override_keeps_other_default(self):
        cfg = StrategyConfig("prob_threshold", t_turnend=4.0)
        assert (cfg.t_turnend, cfg.t_bargein) == (4.0, 0.5)


class TestFireDecision:
    def test_fire_needs_class_and_frame(self):
        with pytest.raises(ValueError):
            FireDecision(True, None, 3)
        with pytest.raises(ValueError):
            FireDecision(True, "turnend", None)
        with pytest.raises(ValueError):
            FireDecision(True, "listen", 3)

    def test_no_fire_carries_nothing(self):
        with pytest.raises(ValueError):
            FireDecision(False, "turnend", None)
        with pytest.raises(ValueError):
            FireDecision(False, None, 2)


class TestFrozenExamples:
    def test_prob_threshold_fires_on_sixth_certain_frame(self):
        frames = [F(0.0, 1.0, 0.0)] * 6
        decision = run_stream(frames, StrategyConfig("prob_threshold"))
        # after six frames the window sum is 6.0 > 5.0; five frames give 5.0 exactly
        assert decision == FireDecision(True, "turnend", 5)
        assert not run_stream(frames[:5], StrategyConfig("prob_threshold")).fired

    def test_listen_relative_never_fires_on_uniform_frames(self):
        frames = [UNIFORM] * 50
        assert run_stream(frames, StrategyConfig("listen_relative")) == FireDecision(False)

    def test_linear_weighted_single_spike_stays_below_threshold(self):
        window = [LISTEN] * 5 + [F(0.0, 1.0, 0.0)]
        score, _ = window_scores("linear_weighted", window)
        assert score == pytest.approx(6 / 21)
        assert not run_stream(window, StrategyConfig("linear_weighted")).fired

    def test_linear_weighted_warmup_renormalizes(self):
        # a single frame is a full window of length 1: score = p itself
        assert window_scores("linear_weighted", [F(0.5, 0.5, 0.0)])[0] == pytest.approx(0.5)
        decision = run_stream([F(0.5, 0.5, 0.0)], StrategyConfig("linear_weighted"))
        assert decision == FireDecision(True, "turnend", 0)

    def test_tail_threshold_run_sum(self):
        hot = F(0.05, 0.95, 0.0)
        window = [LISTEN, hot, LISTEN, hot, hot, hot]
        assert window_scores("tail_threshold", window)[0] == pytest.approx(2.85)
        assert run_stream(window, StrategyConfig("tail_threshold")).fired

    def test_tail_threshold_run_breaks_on_other_argmax(self):
        hot = F(0.05, 0.95, 0.0)
        window = [hot, hot, LISTEN, hot, hot, LISTEN]
        assert window_scores("tail_threshold", window)[0] == pytest.approx(1.9)

    def test_argmax_fires_on_first_non_listen_frame(self):
        frames = [LISTEN, LISTEN, F(0.2, 0.1, 0.7)]
        assert run_stream(frames, StrategyConfig("argmax")) == FireDecision(True, "bargein", 2)


class TestSingleFire:
    def test_state_rejects_frames_after_fire(self):
        state = StrategyState(StrategyConfig("argmax"))
        assert state.step(F(0.0, 1.0, 0.0)).fired
        with pytest.raises(ContractViolation):
            state.step(LISTEN)

    def test_pure_listen_never_fires_any_strategy(self):
        frames = [LISTEN] * 40
        for name in ("argmax", *DEFAULT_THRESHOLDS):
            assert not run_stream(frames, StrategyConfig(name)).fired


class TestLabelsAndOutcomes:
    def test_trigger_window(self):
        assert trigger_window_of(10) == (4, 9)
        assert trigger_window_of(6) == (0, 5)
        assert trigger_window_of(3) == (0, 2)

    def test_classify_outcome_cases(self):
        win = (4, 9)
        assert classify_outcome(FireDecision(True, "turnend", 6), "turnend", win) == "correct"
        assert classify_outcome(FireDecision(True, "bargein", 6), "turnend", win) == "confused"
        assert classify_outcome(FireDecision(True, "turnend", 3), "turnend", win) == "early"
        assert classify_outcome(FireDecision(False), "turnend", win) == "missed"

    def test_classify_outcome_rejects_listen_truth(self):
        with pytest.raises(ValueError):
            classify_outcome(FireDecision(False), "listen", (0, 5))

    def test_early_wrong_class_is_still_early(self):
        assert classify_outcome(FireDecision(True, "bargein", 1), "turnend", (4, 9)) == "early"


class TestCountsAndBinary:
    def test_percentages_partition_to_hundred(self):
        counts = OutcomeCounts(correct=33, early=5, confused=8, missed=4)
        assert sum(counts.pct(name) for name in ("correct", "early", "confused", "missed")) == pytest.approx(100.0, abs=0.1)

    def test_empty_counts_are_zero(self):
        assert OutcomeCounts().pct("correct") == 0.0
        assert OutcomeCounts().binary_accuracy == 0.0

    def test_binary_accuracy_rows(self):
        # The paper's rows, 66.0 + 16.4 -> 82.4 and 58.6 + 11.0 -> 69.6, as the report shows them.
        rows = [(OutcomeCounts(correct=660, early=98, confused=164, missed=78), 82.4),
                (OutcomeCounts(correct=586, early=190, confused=110, missed=114), 69.6)]
        for counts, binary in rows:
            assert counts.as_percentages()["binary"] == pytest.approx(binary)

    def test_as_percentages_keys(self):
        got = OutcomeCounts(correct=1).as_percentages()
        assert set(got) == {"correct", "early", "confused", "missed", "binary"}
        assert got["correct"] == 100.0


class TestEvaluateSet:
    def _streams(self, rng: random.Random, n: int):
        streams = []
        for _ in range(n):
            length = rng.randint(6, 25)
            truth = rng.choice(("turnend", "bargein"))
            frames = [random_frame(rng) for _ in range(length)]
            streams.append((frames, truth))
        return streams

    def test_rows_per_truth_and_partition(self):
        streams = self._streams(random.Random(7), 400)
        report = evaluate_set(streams, StrategyConfig("prob_threshold"))
        table = report.as_table()
        assert set(table) <= {"turnend", "bargein"}
        for row in table.values():
            body = sum(v for k, v in row.items() if k != "binary")
            assert body == pytest.approx(100.0, abs=0.1)
            assert row["binary"] == pytest.approx(row["correct"] + row["confused"])

    def test_totals_match_stream_count(self):
        streams = self._streams(random.Random(3), 120)
        report = evaluate_set(streams, StrategyConfig("argmax"))
        assert sum(c.total for c in report.per_truth.values()) == 120

    def test_ideal_streams_all_correct(self):
        streams = []
        for truth in ("turnend", "bargein"):
            certain = F(0.0, 1.0, 0.0) if truth == "turnend" else F(0.0, 0.0, 1.0)
            streams.append(([LISTEN] * 4 + [certain] * 6, truth))
        report = evaluate_set(streams, StrategyConfig("argmax"))
        for truth, counts in report.per_truth.items():
            assert counts.correct == 1, truth

    def test_sweep_skips_inverted_thresholds(self):
        streams = self._streams(random.Random(1), 10)
        rows = sweep_thresholds(streams, "prob_threshold", [1.0, 2.0], [0.5, 1.5])
        combos = {(r["t_turnend"], r["t_bargein"]) for r in rows}
        assert combos == {(1.0, 0.5), (2.0, 0.5), (2.0, 1.5)}


def _tally_fires(streams, fire_of) -> dict:
    """The outcome table of fire_of(frames) on each labeled stream, counted here."""
    counts: dict[str, dict[str, int]] = {}
    for frames, truth in streams:
        outcome = classify_outcome(fire_of(frames), truth, trigger_window_of(len(frames)))
        counts.setdefault(truth, dict.fromkeys(OUTCOME_CLASSES, 0))[outcome] += 1
    return OutcomeReport({truth: OutcomeCounts(**c) for truth, c in counts.items()}).as_table()


class TestSweep:
    """sweep_thresholds against one run_stream replay per config."""

    TE = [0.25, 0.5, 1.0, 1.5, 2.7, 3.0, 5.0, 6.0]
    BI = [0.05, 0.25, 0.5, 1.0, 2.0, 5.0]

    @staticmethod
    def _streams(rng: random.Random):
        return mixed_streams(rng, 24, 16)

    def test_rows_equal_evaluate_set(self):
        streams = self._streams(random.Random(20261018))
        for strategy in DEFAULT_THRESHOLDS:
            rows = sweep_thresholds(streams, strategy, self.TE, self.BI)
            pairs = [(te, bi) for te in self.TE for bi in self.BI if bi < te]
            assert [(r["t_turnend"], r["t_bargein"]) for r in rows] == pairs
            for row in rows:
                cfg = StrategyConfig(strategy, row["t_turnend"], row["t_bargein"])
                assert row["table"] == _tally_fires(streams, lambda f: run_stream(f, cfg)), (strategy, row)
            # a row whose table another row repeats still owns it
            shared = next(i for i, r in enumerate(rows) if [q["table"] for q in rows].count(r["table"]) > 1)
            before = copy.deepcopy(rows)
            for counts in rows[shared]["table"].values():
                counts["correct"] = -1.0
            rows[shared]["table"]["listen"] = {}
            assert rows[:shared] + rows[shared + 1:] == before[:shared] + before[shared + 1:]

    def test_reads_a_generator_once(self):
        streams = self._streams(random.Random(3))
        rows = sweep_thresholds(iter(streams), "prob_threshold", [4.0, 5.0], [0.5])
        assert len(rows) == 2
        for row in rows:
            cfg = StrategyConfig("prob_threshold", t_turnend=row["t_turnend"], t_bargein=0.5)
            assert row["table"] == evaluate_set(streams, cfg).as_table() != {}

    def test_empty_grid_and_empty_streams(self):
        streams = self._streams(random.Random(4))
        assert sweep_thresholds(streams, "prob_threshold", [], [0.5]) == []
        assert sweep_thresholds(streams, "prob_threshold", [0.5], [1.0]) == []
        rows = sweep_thresholds([], "tail_threshold", [2.7], [0.3])
        assert rows == [{"t_turnend": 2.7, "t_bargein": 0.3, "table": {}}]

    def test_argmax_takes_no_thresholds(self):
        with pytest.raises(ValueError, match="argmax takes no thresholds"):
            sweep_thresholds(self._streams(random.Random(5)), "argmax", [1.0], [0.5])


class TestOracle:
    """Replay every strategy against an independent recomputation."""

    @staticmethod
    def _oracle_argmax(f: ProbFrame) -> str:
        ps = {"listen": f.p_listen, "turnend": f.p_turnend, "bargein": f.p_bargein}
        best = max(ps.values())
        for cls in ("listen", "turnend", "bargein"):
            if ps[cls] == best:
                return cls
        raise AssertionError

    def _oracle_score(self, strategy: str, window, cls: str) -> float:
        if strategy == "prob_threshold":
            return sum(f.p(cls) for f in window)
        if strategy == "listen_relative":
            return sum(max(0.0, f.p(cls) - f.p_listen) for f in window)
        if strategy == "linear_weighted":
            n = len(window)
            return sum((k + 1) * f.p(cls) for k, f in enumerate(window)) / (n * (n + 1) / 2)
        if strategy == "tail_threshold":
            best_len, best_sum = 0, 0.0
            for end in range(len(window)):
                start = end + 1
                while start > 0 and self._oracle_argmax(window[start - 1]) == cls:
                    start -= 1
                # summed in frame order, as a stream accumulates it, so scores compare with ==
                length, total = end + 1 - start, sum(f.p(cls) for f in window[start: end + 1])
                if length > best_len or (length == best_len and total > best_sum):
                    best_len, best_sum = length, total
            return best_sum
        raise AssertionError(strategy)

    def _oracle_run(self, frames, cfg: StrategyConfig):
        for i in range(len(frames)):
            window = frames[max(0, i - TRIGGER_WINDOW + 1): i + 1]
            if cfg.strategy == "argmax":
                cls = self._oracle_argmax(frames[i])
                if cls != "listen":
                    return FireDecision(True, cls, i)
                continue
            fired = None
            for cls, threshold in (("turnend", cfg.t_turnend), ("bargein", cfg.t_bargein)):
                if self._oracle_score(cfg.strategy, window, cls) > threshold:
                    fired = cls
                    break
            if fired is not None:
                return FireDecision(True, fired, i)
        return FireDecision(False)

    def test_strategies_match_oracle_on_random_streams(self):
        rng = random.Random(20260818)
        names = ("argmax", "prob_threshold", "tail_threshold", "listen_relative", "linear_weighted")
        for case in range(1000):
            frames = [random_frame(rng) for _ in range(rng.randint(1, 30))]
            name = names[case % len(names)]
            cfg = StrategyConfig(name)
            assert run_stream(frames, cfg) == self._oracle_run(frames, cfg), (case, name)

    def test_window_scores_stay_in_bounds(self):
        rng = random.Random(5)
        for _ in range(2000):
            window = [random_frame(rng) for _ in range(rng.randint(1, 6))]
            score, _ = window_scores("linear_weighted", window)
            assert 0.0 <= score <= 1.0


    def test_stream_scores_match_oracle(self):
        rng = random.Random(20261020)
        for case, (frames, _) in enumerate(mixed_streams(rng, 600, 30)):
            for strategy in DEFAULT_THRESHOLDS:
                scores = dict(zip(("turnend", "bargein"), stream_scores(frames, strategy)))
                for i in range(len(frames)):
                    window = frames[max(0, i - TRIGGER_WINDOW + 1): i + 1]
                    for cls, got in scores.items():
                        assert got[i] == self._oracle_score(strategy, window, cls), (case, strategy, cls, i)
                    assert window_scores(strategy, window) == (scores["turnend"][i], scores["bargein"][i])

    def test_evaluate_set_matches_oracle(self):
        streams = mixed_streams(random.Random(20261021), 400, 30)
        for name in STRATEGY_NAMES:
            cfg = StrategyConfig(name)
            want = _tally_fires(streams, lambda frames: self._oracle_run(frames, cfg))
            assert evaluate_set(streams, cfg).as_table() == want, name

class TestStreamIO:
    def _write(self, path, records):
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")

    def test_read_groups_and_sorts(self, tmp_path):
        p = tmp_path / "streams.jsonl"
        self._write(p, [
            {"stream_id": "s1", "t": 1, "truth": "turnend", "p_listen": 1.0, "p_turnend": 0.0, "p_bargein": 0.0},
            {"stream_id": "s1", "t": 0, "truth": "turnend", "p_listen": 0.0, "p_turnend": 1.0, "p_bargein": 0.0},
            {"stream_id": "s2", "t": 0, "truth": "bargein", "p_listen": 0.5, "p_turnend": 0.25, "p_bargein": 0.25},
        ])
        streams = {s.stream_id: s for s in read_streams(p)}
        assert streams["s1"].truth == "turnend"
        assert streams["s1"].frames[0].p_turnend == 1.0  # t=0 sorts first
        assert len(streams["s2"].frames) == 1

    def test_fractional_t_sorts_by_value(self, tmp_path):
        p = tmp_path / "streams.jsonl"
        self._write(p, [
            {"stream_id": "s", "t": 0.9, "truth": "turnend", "p_listen": 1.0, "p_turnend": 0.0, "p_bargein": 0.0},
            {"stream_id": "s", "t": 0.1, "truth": "turnend", "p_listen": 0.0, "p_turnend": 1.0, "p_bargein": 0.0},
            {"stream_id": "s", "t": 0.5, "truth": "turnend", "p_listen": 0.0, "p_turnend": 0.0, "p_bargein": 1.0},
        ])
        (stream,) = read_streams(p)
        assert [f.p_turnend for f in stream.frames] == [1.0, 0.0, 0.0]  # t 0.1, 0.5, 0.9
        assert stream.frames[1].p_bargein == 1.0

    def test_conflicting_truth_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        self._write(p, [
            {"stream_id": "s", "t": 0, "truth": "turnend", "p_listen": 1.0, "p_turnend": 0.0, "p_bargein": 0.0},
            {"stream_id": "s", "t": 1, "truth": "bargein", "p_listen": 1.0, "p_turnend": 0.0, "p_bargein": 0.0},
        ])
        with pytest.raises(ValueError):
            read_streams(p)

    def test_missing_truth_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        self._write(p, [
            {"stream_id": "s", "t": 0, "p_listen": 1.0, "p_turnend": 0.0, "p_bargein": 0.0},
        ])
        with pytest.raises(ValueError):
            read_streams(p)

    @pytest.mark.parametrize("bad,message", [
        ({"p_listen": 1.0, "p_turnend": 0.0}, "missing 'p_bargein'"),
        ({"p_listen": 1.0, "p_turnend": "0", "p_bargein": 0.0}, "probability '0' is not a number"),
        ({"p_listen": 1.0, "p_turnend": None, "p_bargein": 0.0}, "probability None is not a number"),
        ({"p_listen": 1.5, "p_turnend": 0.0, "p_bargein": 0.0}, "probability 1.5 is not a number in [0, 1]"),
        ({"p_listen": 0.5, "p_turnend": 0.0, "p_bargein": 0.0}, "sum to"),
        ({"p_listen": 1.0, "p_turnend": 0.0, "p_bargein": 0.0, "t": "late"}, "t 'late' is not"),
        ({"p_listen": 1.0, "p_turnend": 0.0, "p_bargein": 0.0, "t": float("nan")}, "t nan is not"),
        ({"p_listen": 1.0, "p_turnend": 0.0, "p_bargein": 0.0, "t": True}, "t True is not"),
        ({"p_listen": True, "p_turnend": 0.0, "p_bargein": 0.0}, "probability True is not a number"),
    ])
    def test_bad_record_names_file_and_line(self, tmp_path, bad, message):
        p = tmp_path / "bad.jsonl"
        good = {"stream_id": "s", "t": 0, "truth": "turnend",
                "p_listen": 1.0, "p_turnend": 0.0, "p_bargein": 0.0}
        self._write(p, [good, {"stream_id": "s", "t": 1, "truth": "turnend", **bad}])
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:2: .*{re.escape(message)}"):
            read_streams(p)

    def test_round_trip_through_evaluate(self, tmp_path):
        p = tmp_path / "streams.jsonl"
        records = []
        rng = random.Random(11)
        for sid in range(20):
            truth = rng.choice(("turnend", "bargein"))
            for t in range(rng.randint(6, 12)):
                f = random_frame(rng)
                records.append({"stream_id": f"s{sid}", "t": t, "truth": truth,
                                "p_listen": f.p_listen, "p_turnend": f.p_turnend,
                                "p_bargein": f.p_bargein})
        self._write(p, records)
        streams = read_streams(p)
        cfg = StrategyConfig("tail_threshold")
        report = evaluate_set(((s.frames, s.truth) for s in streams), cfg)
        assert sum(c.total for c in report.per_truth.values()) == 20

    def test_format_report_shape(self):
        cfg = StrategyConfig("prob_threshold")
        report = OutcomeReport({"turnend": OutcomeCounts(correct=2)})
        got = format_report(report, cfg)
        assert got["strategy"] == "prob_threshold"
        assert got["window"] == 6
        assert got["thresholds"] == {"turnend": 5.0, "bargein": 0.5}
        assert got["rows"]["turnend"]["correct"] == 100.0
