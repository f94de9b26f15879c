"""Whole-toolkit checks: statistical laws, oracle equality, determinism.

Each check prints one PASS line with its measured numbers once its
assertions hold, so a verbose run doubles as a summary report.
"""

from __future__ import annotations

import functools
import itertools
import random
import string
import time
from collections import Counter

import pytest

from conftest import (
    assistant_pool_profiles,
    dictate,
    make_dialogue,
    make_goal,
    user_pool_profiles,
    write_speaker_manifest,
)
from todvoice.bargein import BargeInConfig, sample_candidates
from todvoice.clients import StubChatClient
from todvoice.corpus import Dialogue, Role, Turn, dumps_dialogue, fluent_text, tagged_text
from todvoice.crossturn import CrossTurnConfig, reconstruct_value, segment_value
from todvoice.disfluency import DisfluencyConfig, apply_disfluency_stage, choose_position, inject
from todvoice.metrics import (
    GaSmr,
    GoalCoverageState,
    GoalItem,
    aggregate_similarity,
    disclosure_curve,
    edit_distance,
    ga_smr,
    slot_f1_micro,
)
from todvoice.pipeline import PipelineConfig, largest_remainder_sizes, run_pipeline, split_corpus
from todvoice.speakers import (
    ACCENT_POOLS,
    AGE_BINS,
    GENDERS,
    PoolWeights,
    build_pool,
    sample_user_speaker,
)
from todvoice.turntaking import (
    DEFAULT_THRESHOLDS,
    STRATEGY_NAMES,
    FireDecision,
    OutcomeCounts,
    ProbFrame,
    TRIGGER_WINDOW,
    StrategyConfig,
    evaluate_set,
    run_stream,
)


def _report(line: str) -> None:
    print(line)


_VOCAB = (
    "please", "book", "a", "table", "for", "two", "tonight", "around", "seven",
    "near", "the", "river", "i'd", "like", "something", "cheap", "in", "town",
    "it's", "friday", "thanks", "can", "you", "check", "that", "works",
)


def _utterance(rng: random.Random, n_words: int) -> str:
    text = " ".join(rng.choice(_VOCAB) for _ in range(n_words))
    return text + "." if rng.random() < 0.5 else text


class TestDisfluencyRate:
    def test_disfluent_fraction_follows_length_model(self):
        start = time.perf_counter()
        cfg = DisfluencyConfig()
        gen = StubChatClient()
        rng = random.Random(101)
        observed = {}
        for length in (5, 10, 20):
            turns = tuple(
                Turn(index=i, role=Role.USER, text=" ".join(rng.choice(_VOCAB) for _ in range(length)))
                for i in range(10_000)
            )
            out = apply_disfluency_stage(turns, cfg, gen, rng)
            observed[length] = sum(bool(t.disfluency) for t in out) / 10_000
            expected = 1.0 - cfg.b ** length
            assert abs(observed[length] - expected) <= 0.02, (length, observed[length], expected)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        _report(
            "PASS disfluency rate: "
            + ", ".join(f"L={L} {observed[L]:.4f} vs {1 - cfg.b ** L:.4f}" for L in (5, 10, 20))
            + f" (+/-0.02, {elapsed:.2f}s)"
        )


class TestBargeInSampling:
    def test_selection_rate_and_cell_uniformity(self):
        rng = random.Random(202)
        n = 100_000
        turns = tuple(
            Turn(index=i, role=Role.USER, text="Could you check that for me?") for i in range(n)
        )
        d = Dialogue("rates", "generic", make_goal(), turns)
        candidates = sample_candidates(d, BargeInConfig(), rng)
        rate = len(candidates) / n
        assert abs(rate - 0.25) <= 0.01, rate
        cells = Counter((c.type, c.style) for c in candidates)
        assert len(cells) == 9
        worst = 0.0
        for count in cells.values():
            share = count / len(candidates)
            worst = max(worst, abs(share - 1 / 9))
            assert abs(share - 1 / 9) <= 0.01, (share, 1 / 9)
        _report(
            f"PASS barge-in sampling: rate {rate:.4f} vs 0.25 (+/-0.01), "
            f"9 cells within {worst:.4f} of 1/9 (+/-0.01) over {n} turns"
        )


class TestCrossTurnReconstruction:
    def test_all_values_reconstruct_and_error_rate(self):
        rng = random.Random(303)
        cfg = CrossTurnConfig()
        n = 10_000
        errors = 0
        for i in range(n):
            if rng.random() < 0.5:
                value = "".join(rng.choice(string.digits) for _ in range(rng.randint(7, 12)))
            else:
                letters = "".join(rng.choice(string.ascii_uppercase) for _ in range(rng.randint(2, 3)))
                digits = "".join(rng.choice(string.digits) for _ in range(rng.randint(5, 9)))
                value = letters + digits
            text = f"The reference is {value} for my booking."
            at = text.index(value)
            d = make_dialogue(
                [(Role.USER, text), (Role.ASSISTANT, "One moment.")],
                dialogue_id=f"code-{i:05d}",
                spans={0: (("ref", at, at + len(value)),)},
            )
            expanded = dictate(d, 0, "ref", segment_value(value), rng, cfg)
            assert reconstruct_value(expanded, "ref") == [value]
            if any(t.crossturn is not None and t.crossturn.is_error for t in expanded.turns):
                errors += 1
        rate = errors / n
        assert abs(rate - 0.20) <= 0.02, rate
        _report(
            f"PASS cross-turn reconstruction: {n}/{n} values rebuilt, "
            f"error rate {rate:.4f} vs 0.20 (+/-0.02)"
        )


class TestSpeakerSampling:
    def test_draws_match_configured_weights(self):
        pool = build_pool(user_pool_profiles(), set())
        weights = PoolWeights()
        rng = random.Random(404)
        n = 100_000
        accents: Counter[str] = Counter()
        bins: Counter[str] = Counter()
        genders: Counter[str] = Counter()
        for _ in range(n):
            sp = sample_user_speaker(pool, weights, rng)
            accents[sp.accent_pool] += 1
            bins[sp.age_bin] += 1
            genders[sp.gender] += 1
        for name in ACCENT_POOLS:
            expected = getattr(weights, name)
            assert abs(accents[name] / n - expected) <= 0.01, (name, accents[name] / n, expected)
        for age_bin in AGE_BINS:
            assert abs(bins[age_bin] / n - 0.25) <= 0.01, (age_bin, bins[age_bin] / n)
        for gender in GENDERS:
            assert abs(genders[gender] / n - 0.5) <= 0.01, (gender, genders[gender] / n)
        _report(
            "PASS speaker sampling over 100,000 draws: "
            + ", ".join(f"{p} {accents[p] / n:.4f} vs {getattr(weights, p):.4f}" for p in ACCENT_POOLS)
            + "; age bins +/-0.01 of 0.25; genders +/-0.01 of 0.5"
        )


def _oracle_argmax(f: ProbFrame) -> str:
    ps = {"listen": f.p_listen, "turnend": f.p_turnend, "bargein": f.p_bargein}
    best = max(ps.values())
    for cls in ("listen", "turnend", "bargein"):
        if ps[cls] == best:
            return cls
    raise AssertionError


def _oracle_score(strategy: str, window: list[ProbFrame], cls: str) -> float:
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
            length, total = 0, 0.0
            for j in range(end, -1, -1):
                if _oracle_argmax(window[j]) != cls:
                    break
                length += 1
                total += window[j].p(cls)
            if length > best_len or (length == best_len and total > best_sum):
                best_len, best_sum = length, total
        return best_sum
    raise AssertionError(strategy)


def _oracle_run(frames: list[ProbFrame], cfg: StrategyConfig) -> FireDecision:
    for i in range(len(frames)):
        if cfg.strategy == "argmax":
            cls = _oracle_argmax(frames[i])
            if cls != "listen":
                return FireDecision(True, cls, i)
            continue
        window = frames[max(0, i - TRIGGER_WINDOW + 1) : i + 1]
        for cls, threshold in (("turnend", cfg.t_turnend), ("bargein", cfg.t_bargein)):
            if _oracle_score(cfg.strategy, window, cls) > threshold:
                return FireDecision(True, cls, i)
    return FireDecision(False)


def _random_frame(rng: random.Random) -> ProbFrame:
    a, b = sorted((rng.random(), rng.random()))
    return ProbFrame(a, b - a, 1.0 - b)


class TestTurnTakingEngine:
    def test_streaming_matches_recompute_oracle(self):
        rng = random.Random(505)
        streams = [
            [_random_frame(rng) for _ in range(rng.randint(1, 30))] for _ in range(1000)
        ]
        for name in STRATEGY_NAMES:
            cfg = StrategyConfig(name)
            for k, frames in enumerate(streams):
                assert run_stream(frames, cfg) == _oracle_run(frames, cfg), (name, k)
        _report(
            f"PASS turn-taking oracle: {len(STRATEGY_NAMES)} strategies equal "
            f"brute-force window recompute on 1000 streams of length <=30"
        )

    def test_outcome_classes_partition(self):
        rng = random.Random(606)
        for name in STRATEGY_NAMES:
            labeled = []
            for truth in ("turnend", "bargein"):
                for _ in range(200):
                    labeled.append(
                        ([_random_frame(rng) for _ in range(rng.randint(7, 30))], truth)
                    )
            table = evaluate_set(labeled, StrategyConfig(name)).as_table()
            for truth, row in table.items():
                total = row["correct"] + row["early"] + row["confused"] + row["missed"]
                assert abs(total - 100.0) <= 0.1, (name, truth, total)
        _report("PASS outcome classes partition: per-truth percentages sum to 100 +/- 0.1")

    def test_binary_collapse_identity(self):
        high = OutcomeCounts(correct=660, early=98, confused=164, missed=78)
        assert high.pct("correct") == pytest.approx(66.0, abs=1e-9)
        assert high.pct("confused") == pytest.approx(16.4, abs=1e-9)
        assert high.binary_accuracy == pytest.approx(82.4, abs=1e-9)
        low = OutcomeCounts(correct=586, early=190, confused=110, missed=114)
        assert low.pct("correct") == pytest.approx(58.6, abs=1e-9)
        assert low.pct("confused") == pytest.approx(11.0, abs=1e-9)
        assert low.binary_accuracy == pytest.approx(69.6, abs=1e-9)
        _report("PASS binary collapse: 66.0+16.4 -> 82.4 and 58.6+11.0 -> 69.6")

    def test_threshold_defaults_load_verbatim(self):
        expected = {
            "prob_threshold": (5.0, 0.5),
            "tail_threshold": (2.7, 0.3),
            "listen_relative": (3.0, 0.3),
            "linear_weighted": (0.45, 0.05),
        }
        assert DEFAULT_THRESHOLDS == expected
        for name, (te, bi) in expected.items():
            direct = StrategyConfig(name)
            assert (direct.t_turnend, direct.t_bargein) == (te, bi)
        argmax = StrategyConfig("argmax")
        assert (argmax.t_turnend, argmax.t_bargein) == (None, None)
        assert len(STRATEGY_NAMES) == 5
        _report("PASS threshold defaults: all five strategies load published values verbatim")


class TestWerOracle:
    def test_exhaustive_equality_with_dp_oracle(self):
        start = time.perf_counter()

        @functools.lru_cache(maxsize=None)
        def oracle(ref: tuple, hyp: tuple) -> int:
            if not ref:
                return len(hyp)
            if not hyp:
                return len(ref)
            return min(
                oracle(ref[1:], hyp) + 1,
                oracle(ref, hyp[1:]) + 1,
                oracle(ref[1:], hyp[1:]) + (ref[0] != hyp[0]),
            )

        seqs = [
            tuple(p)
            for k in range(0, 9)
            for p in itertools.product("ab", repeat=k)
        ]
        checked = 0
        for ref in seqs:
            for hyp in seqs:
                assert edit_distance(ref, hyp) == oracle(ref, hyp), (ref, hyp)
                checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"
        _report(
            f"PASS WER oracle: {checked} pairs over {{a,b}} up to length 8 "
            f"all equal the DP oracle ({elapsed:.1f}s)"
        )


def _item(kind: str, slot: str, value: str | None = None) -> GoalItem:
    return GoalItem(kind=kind, domain="restaurant", slot=slot, value=value)


class TestMetricFixtures:
    def test_ga_smr_hand_computed(self):
        a_items = (
            _item("constraint", "food", "thai"),
            _item("constraint", "area", "north"),
            _item("request", "phone"),
            _item("request", "address"),
        )
        b_items = (
            _item("constraint", "stars", "four"),
            _item("constraint", "parking", "yes"),
            _item("request", "postcode"),
        )
        c_items = (
            _item("constraint", "day", "friday"),
            _item("constraint", "people", "two"),
            _item("constraint", "time", "seven"),
            _item("request", "reference"),
            _item("request", "name"),
        )
        states = [
            GoalCoverageState(a_items, covered=((1, a_items[0]), (2, a_items[2])), turns_seen=3),
            GoalCoverageState(b_items, covered=((1, b_items[0]), (2, b_items[1]), (3, b_items[2])), turns_seen=3),
            GoalCoverageState(c_items, covered=((1, c_items[0]), (1, c_items[1]), (2, c_items[3]), (3, c_items[4])), turns_seen=4),
        ]
        got = ga_smr(states)
        assert got == GaSmr(ga=1 / 3, smr=9 / 12, smr_constraints=5 / 7, smr_requests=4 / 5)
        _report("PASS goal coverage: GA 1/3, SMR 0.75, constraints 5/7, requests 0.8 on 3-dialogue fixture")

    def test_complete_coverage_scores_one(self):
        items = (_item("constraint", "food", "thai"), _item("request", "phone"))
        states = [
            GoalCoverageState(items, covered=((1, items[0]), (2, items[1])), turns_seen=2)
            for _ in range(3)
        ]
        assert ga_smr(states) == GaSmr(1.0, 1.0, 1.0, 1.0)
        _report("PASS complete coverage scores GA=1.00 SMR=1.00")

    def test_slot_f1_hand_computed(self):
        pred = {"food": "thai", "area": "south", "stars": "three"}
        gold = {"food": "thai", "area": "north", "day": "friday"}
        got = slot_f1_micro([(pred, gold)])
        assert (got.precision, got.recall, got.f1) == (1 / 3, 1 / 3, 1 / 3)
        _report("PASS slot F1: one of three matches on both sides -> P=R=F1=1/3")

    def test_disclosure_curve_hand_computed(self):
        items_a = (_item("constraint", "food", "thai"), _item("request", "phone"))
        items_b = (
            _item("constraint", "day", "friday"),
            _item("constraint", "people", "two"),
            _item("request", "reference"),
            _item("request", "name"),
        )
        states = [
            GoalCoverageState(items_a, covered=((1, items_a[0]), (2, items_a[1])), turns_seen=2),
            GoalCoverageState(items_b, covered=((1, items_b[0]),), turns_seen=3),
        ]
        assert disclosure_curve(states) == [0.375, 0.625, 0.625]
        _report("PASS disclosure curve equals hand-computed [0.375, 0.625, 0.625]")

    def test_speaker_similarity_hand_computed(self):
        report = aggregate_similarity([[(1.0, 0.0), (0.0, 1.0), (1.0, 0.0)]])
        assert report.sim_first.mean == pytest.approx(0.5, abs=1e-9)
        assert report.sim_first.std == pytest.approx(0.5, abs=1e-9)
        assert report.sim_prev.mean == pytest.approx(0.0, abs=1e-9)
        assert report.sim_prev.std == pytest.approx(0.0, abs=1e-9)
        _report("PASS speaker similarity: anchor mean 0.5 std 0.5, adjacent mean 0.0 std 0.0 (1e-9)")


def _fixture_corpus(n: int) -> list[Dialogue]:
    lines = (
        "Thank you so much, that is great news.",
        "Sorry, I think something went wrong there.",
        "I am worried this will not work out.",
        "Can I also get the phone number please.",
    )
    out = []
    for i in range(n):
        code = f"AB{i:02d}XY{(7 * i) % 90 + 10}"
        opener = f"I need to register the code {code} for my account."
        at = opener.index(code)
        out.append(
            make_dialogue(
                [
                    (Role.USER, opener),
                    (Role.ASSISTANT, "Sure, let me note that down."),
                    (Role.USER, lines[i % len(lines)]),
                    (Role.ASSISTANT, "All set, the booking is confirmed."),
                ],
                dialogue_id=f"fixture-{i:04d}",
                spans={0: (("code", at, at + len(code)),)},
            )
        )
    return out


class TestPipelineDeterminism:
    def test_stub_run_byte_identical_across_runs_and_workers(self, tmp_path):
        dialogues = _fixture_corpus(20)
        user_m = tmp_path / "speakers.json"
        asst_m = tmp_path / "assistants.json"
        write_speaker_manifest(user_pool_profiles(), user_m)
        write_speaker_manifest(assistant_pool_profiles(), asst_m)

        def run(tag: str, workers: int) -> str:
            cfg = PipelineConfig(
                global_seed=7,
                workers=workers,
                out_dir=str(tmp_path / f"run-{tag}"),
                speaker_manifest=str(user_m),
                assistant_manifest=str(asst_m),
            )
            result = run_pipeline(dialogues, cfg)
            assert not result.quarantined
            parts = [dumps_dialogue(d) for d in result.dialogues]
            parts.extend(str(r.to_dict()) for r in result.manifest)
            return "\n".join(parts).encode("utf-8").hex()

        first = run("a", 1)
        second = run("b", 1)
        parallel = run("c", 4)
        assert first == second
        assert first == parallel
        _report("PASS pipeline determinism: 20-dialogue stub run byte-identical twice and at workers 1 vs 4")

    def test_thousand_dialogue_split_sizes(self):
        dialogues = [make_dialogue(dialogue_id=f"d{i:05d}") for i in range(1000)]
        train, valid, test = split_corpus(dialogues)
        assert (len(train), len(valid), len(test)) == (750, 100, 150)
        assert largest_remainder_sizes(1000, (0.75, 0.10, 0.15)) == [750, 100, 150]
        _report("PASS split sizes: 1000 dialogues -> exactly 750/100/150")


class TestProductPathTypes:
    def test_stage_output_keeps_turn_field_types(self, tmp_path):
        # Turn and Dialogue constructors coerce nothing, so every stage must
        # build its turns with the types the JSON boundary produces.
        user_m = tmp_path / "speakers.json"
        asst_m = tmp_path / "assistants.json"
        write_speaker_manifest(user_pool_profiles(), user_m)
        write_speaker_manifest(assistant_pool_profiles(), asst_m)
        cfg = PipelineConfig(global_seed=7, out_dir=str(tmp_path / "run"),
                             speaker_manifest=str(user_m), assistant_manifest=str(asst_m))
        result = run_pipeline(_fixture_corpus(20), cfg)
        assert not result.quarantined
        turns = [t for d in result.dialogues for t in d.turns]
        for d in result.dialogues:
            assert type(d.turns) is tuple
        for t in turns:
            assert type(t.role) is Role
            assert type(t.slot_spans) is tuple and all(type(sp) is tuple for sp in t.slot_spans)
            assert type(t.disfluency) is tuple
            assert t.emotion is not None and t.audio_ref is not None
        # every editing stage ran on this corpus
        assert any(t.crossturn for t in turns)
        assert any(t.bargein for t in turns)
        assert any(t.disfluency for t in turns)
        _report(f"PASS product-path types: {len(turns)} turns of 20 dialogues after every stage")


class TestFluentRoundTrip:
    def test_projection_recovers_original_text(self):
        rng = random.Random(909)
        kinds = ("FP", "DM", "EDIT", "REP")
        counts: Counter[str] = Counter()
        n = 10_000
        for i in range(n):
            text = _utterance(rng, rng.randint(3, 12))
            turn = Turn(index=0, role=Role.USER, text=text)
            dtype, position = choose_position(turn, kinds[i % 4], rng)
            out = inject(turn, dtype, position, None, rng)
            assert out.disfluency, "injection must record metadata"
            assert fluent_text(out) == text, (dtype, text, tagged_text(out))
            counts[dtype] += 1
        assert set(counts) == set(kinds)
        assert all(v == n // 4 for v in counts.values())
        _report(f"PASS fluent text: {n}/{n} insertions of FP/DM/EDIT/REP invert exactly")
