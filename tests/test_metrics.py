"""WER, goal coverage, slot F1, similarity, and corpus statistics."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import random

import pytest

from todvoice.clients import ChatClient
from todvoice.corpus import (
    BargeInMeta,
    BargeInStyle,
    BargeInType,
    DisfluencyMeta,
    Emotion,
    Role,
)
from todvoice.metrics import (
    GaSmr,
    Prf,
    GoalCoverageState,
    GoalItem,
    aggregate_similarity,
    build_wer_report,
    cosine,
    dataset_stats,
    disclosure_curve,
    edit_distance,
    evaluate_dialogue_coverage,
    format_wer_report,
    ga_smr,
    goal_items,
    judge_turn_coverage,
    parse_selection,
    similarity_pairs,
    slot_f1_micro,
)

from conftest import RejectingChat, make_dialogue, make_goal


@functools.lru_cache(maxsize=None)
def _oracle_ed(ref: tuple, hyp: tuple) -> int:
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    return min(
        _oracle_ed(ref[1:], hyp) + 1,
        _oracle_ed(ref, hyp[1:]) + 1,
        _oracle_ed(ref[1:], hyp[1:]) + (ref[0] != hyp[0]),
    )


def _wer(ref: str, hyp: str) -> float:
    """The WER of one utterance, as the report gives it."""
    return build_wer_report([("native", ref, hyp)])["overall"].wer


class TestWer:
    def test_identity(self):
        assert _wer("the cat sat", "the cat sat") == 0.0

    def test_single_substitution(self):
        assert _wer("a b c", "a x c") == pytest.approx(1 / 3)

    def test_empty_hypothesis_is_all_deletions(self):
        assert _wer("a b c d", "") == 1.0

    def test_can_exceed_one(self):
        assert _wer("a", "x y z") == 3.0

    def test_exhaustive_small_alphabet(self):
        # full enumeration up to length 5 here; the acceptance suite goes to 8
        seqs = [tuple(s) for n in range(6) for s in itertools.product("ab", repeat=n)]
        for ref in seqs:
            for hyp in seqs:
                assert edit_distance(ref, hyp) == _oracle_ed(ref, hyp), (ref, hyp)

    def test_random_longer_pairs_match_oracle(self):
        rng = random.Random(0)
        words = ["a", "b", "c", "d"]
        for _ in range(400):
            ref = tuple(rng.choice(words) for _ in range(rng.randint(1, 8)))
            hyp = tuple(rng.choice(words) for _ in range(rng.randint(0, 8)))
            assert edit_distance(ref, hyp) == _oracle_ed(ref, hyp)


class TestParseSelection:
    def test_plain_list(self):
        assert parse_selection("[1, 3]") == [1, 3]

    def test_embedded_in_prose(self):
        assert parse_selection("The user mentions items [2,4] here.") == [2, 4]

    def test_empty_brackets(self):
        assert parse_selection("[]") == []

    def test_garbage_is_none(self):
        assert parse_selection("no brackets at all") is None
        assert parse_selection("[one, two]") is None


class _ScriptedJudge(ChatClient):
    def __init__(self, replies):
        self.replies = list(replies)
        self.prompts = []

    def chat(self, messages):
        self.prompts.append(messages[-1]["content"])
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply


def _state(n_constraints=2, n_requests=0):
    items = tuple(
        GoalItem("constraint", "restaurant", f"slot{i}", f"v{i}") for i in range(n_constraints)
    ) + tuple(GoalItem("request", "restaurant", f"req{i}") for i in range(n_requests))
    return GoalCoverageState(items=items)


class TestJudgeTurnCoverage:
    def test_selection_moves_items(self):
        state = _state(4)
        judge = _ScriptedJudge(["[1, 3]"])
        out = judge_turn_coverage(state, "", "utterance", judge)
        assert len(out.remaining()) == 2
        assert [ordinal for ordinal, _ in out.covered] == [1, 1]

    def test_empty_selection_keeps_state(self):
        state = _state(3)
        out = judge_turn_coverage(state, "", "utterance", _ScriptedJudge(["[]"]))
        assert out.covered == ()
        assert out.turns_seen == 1

    def test_duplicate_indices_counted_once(self):
        state = _state(3)
        out = judge_turn_coverage(state, "", "u", _ScriptedJudge(["[2, 2, 2]"]))
        assert len(out.covered) == 1
        assert len(out.remaining()) == 2

    def test_out_of_range_indices_ignored(self):
        state = _state(2)
        out = judge_turn_coverage(state, "", "u", _ScriptedJudge(["[1, 9]"]))
        assert len(out.covered) == 1

    def test_unparseable_retries_once_then_empty(self):
        state = _state(2)
        judge = _ScriptedJudge(["gibberish", "more gibberish"])
        out = judge_turn_coverage(state, "", "u", judge)
        assert out.covered == ()
        assert len(judge.prompts) == 2

    def test_unparseable_then_valid(self):
        state = _state(2)
        out = judge_turn_coverage(state, "", "u", _ScriptedJudge(["??", "[2]"]))
        assert len(out.covered) == 1

    def test_permanent_client_error_is_sent_once(self):
        judge = RejectingChat()
        out = judge_turn_coverage(_state(2), "", "u", judge)
        assert out.covered == ()
        assert out.turns_seen == 1
        assert judge.calls == 1

    def test_covered_item_not_reofferable(self):
        state = _state(2)
        state = judge_turn_coverage(state, "", "u1", _ScriptedJudge(["[1]"]))
        judge = _ScriptedJudge(["[1]"])
        state = judge_turn_coverage(state, "", "u2", judge)
        # the second prompt offers only the one remaining item
        assert "slot1" in judge.prompts[0]
        assert "slot0" not in judge.prompts[0]
        assert state.complete

    def test_complete_state_skips_judge(self):
        state = _state(1)
        state = judge_turn_coverage(state, "", "u", _ScriptedJudge(["[1]"]))
        judge = _ScriptedJudge([])
        state = judge_turn_coverage(state, "", "u2", judge)
        assert judge.prompts == []
        assert state.turns_seen == 2


class TestGoalItems:
    def test_ordering_constraints_then_requests_sorted(self):
        goal = make_goal(food="thai", area="centre")
        items = goal_items(goal)
        assert [i.slot for i in items] == ["area", "food", "phone"]
        assert [i.kind for i in items] == ["constraint", "constraint", "request"]

    def test_kind_value_pairing_enforced(self):
        with pytest.raises(ValueError):
            GoalItem("request", "restaurant", "phone", "value")
        with pytest.raises(ValueError):
            GoalItem("constraint", "restaurant", "food")

    def test_render(self):
        assert GoalItem("constraint", "hotel", "area", "north").render() == "hotel area = north"
        assert GoalItem("request", "hotel", "phone").render() == "request: hotel phone"


def _covered_state(n_items, covered_ordinals, kinds=None, turns_seen=None):
    kinds = kinds or ["constraint"] * n_items
    items = tuple(
        GoalItem(k, "d", f"s{i}", f"v{i}" if k == "constraint" else None)
        for i, k in enumerate(kinds)
    )
    covered = tuple((ordinal, items[i]) for i, ordinal in covered_ordinals)
    seen = turns_seen if turns_seen is not None else (max((o for o, _ in covered), default=1))
    return GoalCoverageState(items=items, covered=covered, turns_seen=seen)


class TestGaSmr:
    def test_half_covered_fixture(self):
        full = _covered_state(3, [(0, 1), (1, 1), (2, 2)])
        partial = _covered_state(2, [(0, 1)])
        got = ga_smr([full, partial])
        assert got.ga == 0.5
        assert got.smr == pytest.approx(4 / 5)

    def test_all_covered_boundary(self):
        states = [_covered_state(2, [(0, 1), (1, 2)]) for _ in range(3)]
        got = ga_smr(states)
        assert got == GaSmr(1.0, 1.0, 1.0, 1.0)

    def test_kind_split(self):
        s = _covered_state(4, [(0, 1), (2, 2)], kinds=["constraint", "constraint", "request", "request"])
        got = ga_smr([s])
        assert got.smr_constraints == 0.5
        assert got.smr_requests == 0.5
        assert got.smr == 0.5
        assert got.ga == 0.0

    def test_ga_requires_full_own_coverage(self):
        nearly = _covered_state(3, [(0, 1), (1, 1)])
        assert ga_smr([nearly]).ga == 0.0


class TestDisclosureCurve:
    def test_all_disclosed_turn_one(self):
        s = _covered_state(2, [(0, 1), (1, 1)], turns_seen=3)
        assert disclosure_curve([s]) == [1.0, 1.0, 1.0]

    def test_uniform_disclosure_is_linear(self):
        k = 4
        s = _covered_state(k, [(i, i + 1) for i in range(k)], turns_seen=k)
        assert disclosure_curve([s]) == pytest.approx([i / k for i in range(1, k + 1)])

    def test_short_dialogue_contributes_final_coverage(self):
        short = _covered_state(1, [(0, 1)], turns_seen=1)
        long = _covered_state(1, [(0, 3)], turns_seen=3)
        curve = disclosure_curve([short, long])
        assert curve == pytest.approx([0.5, 0.5, 1.0])

    def test_random_states_monotone_in_unit_interval(self):
        rng = random.Random(9)
        states = []
        for _ in range(60):
            n = rng.randint(1, 5)
            seen = rng.randint(1, 6)
            ordinals = sorted(rng.randint(1, seen) for _ in range(rng.randint(0, n)))
            states.append(_covered_state(n, list(zip(range(len(ordinals)), ordinals)), turns_seen=seen))
        curve = disclosure_curve(states)
        assert all(0.0 <= v <= 1.0 for v in curve)
        assert all(a <= b + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_empty_input(self):
        assert disclosure_curve([]) == []


class TestSlotF1:
    def test_identical(self):
        state = {"area": "centre", "food": "thai"}
        assert slot_f1_micro([(state, dict(state))]) == Prf(1.0, 1.0, 1.0)

    def test_pred_subset_half(self):
        gold = {"area": "centre", "food": "thai"}
        pred = {"area": "centre"}
        got = slot_f1_micro([(pred, gold)])
        assert got.precision == 1.0
        assert got.recall == 0.5
        assert got.f1 == pytest.approx(2 / 3)

    def test_disjoint(self):
        assert slot_f1_micro([({"a": "1"}, {"b": "2"})]) == Prf(0.0, 0.0, 0.0)

    def test_value_normalization(self):
        assert slot_f1_micro([({"area": "  CENTRE "}, {"area": "centre"})]).f1 == 1.0
        assert slot_f1_micro([({"time": "7   pm"}, {"time": "7 pm"})]).f1 == 1.0

    def test_name_must_match_exactly(self):
        assert slot_f1_micro([({"Area": "centre"}, {"area": "centre"})]).f1 == 0.0

    def test_micro_pools_pairs(self):
        pairs = [
            ({"a": "1"}, {"a": "1", "b": "2"}),
            ({"c": "3"}, {"c": "3", "d": "4"}),
        ]
        got = slot_f1_micro(pairs)
        assert got.precision == 1.0
        assert got.recall == 0.5
        assert got.f1 == pytest.approx(2 / 3)

    def test_both_empty(self):
        got = slot_f1_micro([({}, {})])
        assert got.f1 == 0.0


class TestSimilarity:
    def test_identical_vectors(self):
        vectors = [[1.0, 2.0, 3.0]] * 4
        report = aggregate_similarity([vectors])
        assert report.sim_first.mean == pytest.approx(1.0)
        assert report.sim_first.std == pytest.approx(0.0)
        assert report.sim_prev.mean == pytest.approx(1.0)
        assert report.sim_first.n == report.sim_prev.n == 3

    def test_orthogonal_consecutive(self):
        vectors = [[1.0, 0.0], [0.0, 1.0]]
        report = aggregate_similarity([vectors])
        assert report.sim_prev.mean == pytest.approx(0.0)

    def test_random_unit_vectors_match_direct_oracle(self):
        rng = random.Random(4)
        vectors = []
        for _ in range(12):
            v = [rng.gauss(0, 1) for _ in range(16)]
            norm = math.sqrt(sum(x * x for x in v))
            vectors.append([x / norm for x in v])
        first, prev = similarity_pairs(vectors)
        for i in range(1, len(vectors)):
            dot0 = sum(a * b for a, b in zip(vectors[0], vectors[i]))
            dotp = sum(a * b for a, b in zip(vectors[i - 1], vectors[i]))
            assert abs(first[i - 1] - dot0) < 1e-9
            assert abs(prev[i - 1] - dotp) < 1e-9

    def test_zero_vector_excluded(self):
        vectors = [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        first, prev = similarity_pairs(vectors)
        assert len(first) == 1  # v1 dropped, v2 kept
        assert prev == []  # both consecutive pairs touch the zero vector

    def test_needs_two_vectors(self):
        with pytest.raises(ValueError):
            similarity_pairs([[1.0, 0.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_zero_vector_cosine_undefined(self):
        with pytest.raises(ValueError):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_aggregate_pools_across_dialogues(self):
        a = [[1.0, 0.0], [1.0, 0.0]]
        b = [[0.0, 1.0], [1.0, 0.0]]
        report = aggregate_similarity([a, b])
        assert report.sim_first.n == 2
        assert report.sim_first.mean == pytest.approx(0.5)


class TestDatasetStats:
    def test_word_and_utterance_counts(self):
        pairs = [(Role.USER if i % 2 == 0 else Role.ASSISTANT, "one two") for i in range(4)]
        d1 = make_dialogue(texts=pairs, dialogue_id="a")
        d2 = make_dialogue(texts=pairs, dialogue_id="b")
        stats = dataset_stats([d1, d2])
        assert stats["dialogues"] == 2
        assert stats["utterances"] == 8
        assert stats["avg_words_per_utterance"] == pytest.approx(2.0)

    def test_behavior_counts(self):
        d = make_dialogue()
        meta = BargeInMeta(BargeInType.EFFICIENCY, BargeInStyle.RAW)
        turns = list(d.turns)
        turns[0] = turns[0].with_(
            bargein=meta,
            emotion=Emotion.SATISFIED,
            disfluency=(DisfluencyMeta("FP", 0, "uh,"),),
        )
        turns[2] = turns[2].with_(bargein=meta, emotion=Emotion.NEUTRAL)
        stats = dataset_stats([dataclasses.replace(d, turns=tuple(turns))])
        assert stats["behaviors"] == {"crossturn": 0, "bargein": 2, "disfluency": 1, "emotion": 2}
        assert stats["bargein_by_subtype"] == {"REF_RAW": 2}
        assert stats["disfluency_by_type"] == {"FP": 1}
        assert stats["emotion_by_label"] == {"neutral": 1, "satisfied": 1}

    def test_empty_corpus_is_all_zeros(self):
        stats = dataset_stats([])
        assert stats["dialogues"] == 0
        assert stats["utterances"] == 0
        assert stats["avg_words_per_utterance"] == 0.0
        assert stats["total_duration_s"] == 0.0
        assert stats["behaviors"] == {"crossturn": 0, "bargein": 0, "disfluency": 0, "emotion": 0}

    def test_duration_and_speakers(self):
        d = make_dialogue()
        turns = tuple(t.with_(duration_s=2.0) for t in d.turns)
        stats = dataset_stats([dataclasses.replace(d, turns=turns)])
        assert stats["total_duration_s"] == pytest.approx(8.0)
        assert stats["total_duration_h"] == pytest.approx(8.0 / 3600.0)
        assert stats["speakers"] == 0  # no manifests attached

    def test_to_dict_shape(self):
        got = dataset_stats([make_dialogue()])
        assert list(got) == [
            "dialogues", "utterances", "avg_words_per_utterance", "speakers", "total_duration_s",
            "total_duration_h", "behaviors", "bargein_by_subtype", "disfluency_by_type", "emotion_by_label",
        ]
        assert got["dialogues"] == 1
        assert list(got["behaviors"]) == ["crossturn", "bargein", "disfluency", "emotion"]


class TestEvaluateDialogueCoverage:
    def test_user_turns_drive_judging(self):
        d = make_dialogue(texts=[
            (Role.USER, "I need a cheap thai place in the centre."),
            (Role.ASSISTANT, "Sure, searching now."),
            (Role.USER, "Can I get the phone number?"),
            (Role.ASSISTANT, "Here it is."),
        ])
        d = dataclasses.replace(d, goal=make_goal(food="thai", area="centre"))
        judge = _ScriptedJudge(["[1, 2]", "[1]"])
        state = evaluate_dialogue_coverage(d, judge)
        assert state.complete
        assert state.turns_seen == 2
        # history grows between prompts: second prompt carries the first exchange
        assert "searching now" in judge.prompts[1]


class TestWerReport:
    def test_micro_aggregation(self):
        rows = [
            ("native", "a b c", "a b c"),
            ("native", "a b c", "a x c"),
            ("indian", "a b", "a b"),
        ]
        report = build_wer_report(rows)
        assert report["native"].wer == pytest.approx(1 / 6)
        assert report["native"].utterances == 2
        assert report["indian"].wer == 0.0
        assert report["overall"].wer == pytest.approx(1 / 8)
        assert report["overall"].utterances == 3

    def test_normalizes_before_alignment(self):
        report = build_wer_report([("native", "a table for 2", "a table for two")])
        assert report["overall"].wer == 0.0

    def test_empty_reference_rows_skipped(self):
        report = build_wer_report([("native", "", "anything"), ("native", "a", "a")])
        assert report["overall"].utterances == 1

    def test_format_contains_groups(self):
        text = format_wer_report(build_wer_report([("asian", "a b", "a x")]))
        assert "asian" in text
        assert "overall" in text
        assert "50.00" in text
