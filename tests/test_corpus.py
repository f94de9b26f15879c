"""Schema invariants, validator coverage, fluent projection, and JSON round-trips."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from todvoice.corpus import (
    BargeInMeta,
    BargeInStyle,
    BargeInType,
    CorpusError,
    CrossTurnMeta,
    Dialogue,
    DisfluencyMeta,
    Emotion,
    Goal,
    Role,
    SubGoal,
    Turn,
    clear_of,
    corrections,
    dialogue_from_dict,
    dialogue_to_dict,
    dumps_dialogue,
    edit_text,
    fluent_text,
    load_corpus,
    loads_dialogue,
    save_corpus,
    splice_turns,
    tagged_text,
    turn_from_dict,
    validate_dialogue,
)

from conftest import make_dialogue, make_goal, states_of, with_states

GOLDEN_CORPUS = Path(__file__).parent / "data" / "golden_corpus.jsonl"


class TestModel:
    def test_json_boundary_types_turn_fields(self):
        d = loads_dialogue(json.dumps({
            "dialogue_id": "b",
            "goal": {"text": "g", "structured": {"sub_goals": [{"domain": "d", "intent": "i"}]}},
            "turns": [{
                "role": "user",
                "text": "uh, to Paris",
                "tagged": "[FP] uh, to Paris",
                "slot_spans": [["city", 7, 12]],
                "disfluency": [{"type": "FP", "position": 0, "inserted_span": "uh,"}],
            }],
        }))
        assert type(d.turns) is tuple
        t = d.turns[0]
        assert t.role is Role.USER
        assert t.slot_spans == (("city", 7, 12),) and type(t.slot_spans[0]) is tuple
        assert type(t.disfluency) is tuple and t.disfluency[0].type == "FP"

    def test_subgoal_rejects_constraint_request_overlap(self):
        with pytest.raises(CorpusError):
            SubGoal(domain="d", intent="i", constraints={"area": "centre"}, requests=("area",))

    def test_goal_requires_sub_goals(self):
        with pytest.raises(CorpusError):
            Goal(text="empty", sub_goals=())

    def test_emotion_ids_fixed(self):
        assert [e.value for e in Emotion] == [0, 1, 2, 3, 4, 5, 6]
        assert Emotion.NEUTRAL.value == 0
        assert Emotion.SATISFIED.value == 6

    def test_state_at_looks_back(self):
        d = with_states(make_dialogue(), {1: {"food": "italian"}})
        assert d.state_at(0) is None
        assert d.state_at(1) == {"food": "italian"}
        assert d.state_at(3) == {"food": "italian"}

    def test_dialogue_numbers_misnumbered_turns(self):
        turns = [Turn(index=9, role=Role.USER, text="a"), Turn(index=9, role=Role.ASSISTANT, text="b")]
        d = Dialogue(dialogue_id="n", source="generic", goal=make_goal(), turns=turns)
        assert type(d.turns) is tuple
        assert [t.index for t in d.turns] == [0, 1]
        assert [t.text for t in d.turns] == ["a", "b"]

    def test_dialogue_keeps_turns_already_in_place(self):
        turns = make_dialogue().turns
        d = Dialogue(dialogue_id="n", source="generic", goal=make_goal(), turns=list(turns))
        assert all(a is b for a, b in zip(d.turns, turns, strict=True))

    def test_with_turns_returns_the_dialogue_itself_when_no_turn_changed(self):
        d = make_dialogue()
        assert d.with_turns(list(d.turns)) is d
        assert splice_turns(d, []) is d
        changed = d.with_turns([d.turns[0].with_(text="other"), *d.turns[1:]])
        assert changed is not d and changed.turns[1:] == d.turns[1:]
        assert d.with_turns(d.turns[:-1]) is not d

    def test_loading_copies_no_turn(self, monkeypatch):
        # turn_from_dict builds each turn at its position, so the Dialogue keeps it as it is.
        copies = []
        original = Turn.with_

        def with_(t, **changes):
            copies.append(changes)
            return original(t, **changes)

        monkeypatch.setattr(Turn, "with_", with_)
        assert load_corpus(GOLDEN_CORPUS)
        assert copies == []


def _dictation(is_error: bool = True, fix_chunk: int = 0) -> Dialogue:
    """A user chunk (erroneous unless is_error is False) whose next user turn
    re-dictates chunk fix_chunk of the same slot correctly."""
    err = CrossTurnMeta(slot_name="phone", chunk_index=0, chunk_text="123", is_error=is_error)
    fix = CrossTurnMeta(slot_name="phone", chunk_index=fix_chunk, chunk_text="124")
    turns = (
        Turn(index=0, role=Role.USER, text="Then one two three.", crossturn=err),
        Turn(index=1, role=Role.ASSISTANT, text="Got it, one two three.", crossturn=err),
        Turn(index=2, role=Role.USER, text="Wait, I meant one two four.", crossturn=fix),
        Turn(index=3, role=Role.ASSISTANT, text="Got it, one two four.", crossturn=fix),
    )
    return Dialogue(dialogue_id="ct", source="generic", goal=make_goal(), turns=turns)


def _load_with_pointer(d: Dialogue, at: int, pointer) -> Dialogue:
    """d written out, with turn at's stored correction pointer set to pointer, and read back."""
    doc = dialogue_to_dict(d)
    doc["turns"][at]["crossturn"]["corrected_in_turn"] = pointer
    return dialogue_from_dict(doc)


class TestCorrections:
    def test_the_next_user_turn_re_dictating_the_chunk_corrects_it(self):
        assert corrections(_dictation().turns) == {0: 2}

    def test_only_an_erroneous_user_chunk_is_corrected(self):
        assert corrections(_dictation(is_error=False).turns) == {}
        assert corrections(_dictation(fix_chunk=1).turns) == {}

    def test_a_second_erroneous_try_is_not_the_correction(self):
        d = _dictation()
        again = d.turns[:2]  # the same chunk, mis-spoken once more
        assert corrections(splice_turns(d, [(2, 2, again)]).turns) == {2: 4}

    def test_a_user_turn_without_a_chunk_in_between_is_skipped(self):
        d = _dictation()
        aside = Turn(index=0, role=Role.USER, text="Uh-huh.")
        assert corrections(splice_turns(d, [(1, 1, [aside, d.turns[1]])]).turns) == {0: 4}

    def test_a_chunk_of_another_slot_in_between_is_skipped(self):
        d = _dictation()
        other = CrossTurnMeta(slot_name="code", chunk_index=0, chunk_text="AB")
        block = [d.turns[1], Turn(index=0, role=Role.USER, text="A B.", crossturn=other)]
        assert corrections(splice_turns(d, [(1, 2, block)]).turns) == {0: 3}


class TestSpliceTurns:
    def _dialogue(self):
        d = make_dialogue(texts=[(Role.USER if i % 2 == 0 else Role.ASSISTANT, f"t{i}") for i in range(6)])
        err = CrossTurnMeta(slot_name="phone", chunk_index=0, chunk_text="012", is_error=True)
        turns = list(d.turns)
        turns[0] = turns[0].with_(crossturn=err)
        turns[4] = turns[4].with_(crossturn=dataclasses.replace(err, is_error=False))
        return with_states(d.with_turns(turns), {0: {"a": "0"}, 2: {"a": "2"}, 4: {"a": "4"}})

    def test_block_replaces_range_and_indices_are_dense(self):
        d = self._dialogue()
        out = splice_turns(d, [(1, 3, [Turn(index=99, role=Role.ASSISTANT, text="new")])])
        assert [t.text for t in out.turns] == ["t0", "new", "t3", "t4", "t5"]
        assert [t.index for t in out.turns] == list(range(5))
        assert (out.dialogue_id, out.goal) == (d.dialogue_id, d.goal)

    def test_pointers_at_or_past_stop_move_by_the_length_change(self):
        # The correction pointer is derived from the turns, so it follows the
        # correcting turn wherever the splice puts it.
        d = self._dialogue()
        assert corrections(d.turns) == {0: 4}
        block = [Turn(index=0, role=Role.ASSISTANT, text=f"n{i}") for i in range(3)]
        out = splice_turns(d, [(2, 2, block)])
        assert corrections(out.turns) == {0: 7}
        assert out.turns[7].text == "t4"
        assert dialogue_to_dict(out)["turns"][0]["crossturn"]["corrected_in_turn"] == 7
        assert states_of(out) == {0: {"a": "0"}, 5: {"a": "2"}, 7: {"a": "4"}}


@st.composite
def _dialogue_and_edits(draw):
    """A dialogue of 0-8 turns and 0-4 ordered, non-overlapping edits."""
    n = draw(st.integers(0, 8))
    d = make_dialogue(texts=[(Role.USER, f"t{i}") for i in range(n)])
    k = draw(st.integers(0, 4))
    bounds = sorted(draw(st.lists(st.integers(0, n), min_size=2 * k, max_size=2 * k)))
    edits = []
    for e in range(k):
        block = [Turn(index=0, role=Role.ASSISTANT, text=f"b{e}.{j}") for j in range(draw(st.integers(0, 3)))]
        edits.append((bounds[2 * e], bounds[2 * e + 1], block))
    return d, edits


@settings(max_examples=300)
@given(_dialogue_and_edits())
def test_splice_turns_equals_its_edits_applied_right_to_left(case):
    # Right to left, each edit's coordinates are still those of the input.
    d, edits = case
    expected = d
    for edit in reversed(edits):
        expected = splice_turns(expected, [edit])
    assert splice_turns(d, edits) == expected


@settings(max_examples=300)
@given(_dialogue_and_edits())
def test_splice_turns_numbers_every_turn_and_keeps_those_before_the_first_edit(case):
    d, edits = case
    out = splice_turns(d, edits)
    assert [t.index for t in out.turns] == list(range(len(out.turns)))
    first = edits[0][0] if edits else len(d.turns)
    assert all(a is b for a, b in zip(out.turns[:first], d.turns[:first], strict=True))


class TestEditText:
    def test_spans_and_ranges_at_or_after_the_edit_move(self):
        fp = DisfluencyMeta("FP", 0, "uh,", start=4, end=8)
        t = Turn(index=0, role=Role.USER, text="abc uh, def ghi",
                 slot_spans=(("a", 0, 3), ("b", 8, 11)), disfluency=(fp,))
        out = edit_text(t, 4, 4, "xx ")
        assert out.text == "abc xx uh, def ghi"
        assert out.slot_spans == (("a", 0, 3), ("b", 11, 14))
        assert out.disfluency == (dataclasses.replace(fp, start=7, end=11),)

    def test_replaced_span_goes_a_range_reaching_in_stretches_and_changes_apply(self):
        fp = DisfluencyMeta("FP", 0, "uh,", start=0, end=4)
        t = Turn(index=0, role=Role.USER, text="uh, abc def", slot_spans=(("a", 4, 7), ("b", 8, 11)), disfluency=(fp,))
        out = edit_text(t, 4, 7, "wxyz", emotion=Emotion.NEUTRAL)
        assert (out.text, out.slot_spans, out.emotion) == ("uh, wxyz def", (("b", 9, 12),), Emotion.NEUTRAL)
        assert out.disfluency == (fp,)
        assert edit_text(t, 2, 2, "mm").disfluency == (dataclasses.replace(fp, end=6),)

    def test_a_range_keeps_what_remains_of_it_and_the_old_audio_goes(self):
        fp = DisfluencyMeta("FP", 0, "uh,", start=0, end=4)
        t = Turn(index=0, role=Role.USER, text="uh, abc def", disfluency=(fp,), audio_ref="a.wav", duration_s=1.2)
        out = edit_text(t, 2, 5, "")
        assert (out.text, out.disfluency) == ("uhbc def", (dataclasses.replace(fp, end=2),))
        assert (out.audio_ref, out.duration_s) == (None, None)
        assert edit_text(t, 0, 5, "x").disfluency == ()
        assert edit_text(t, 0, 0, "x", audio_ref="b.wav").audio_ref == "b.wav"


@st.composite
def _turn_and_edit(draw):
    """A user turn of plain text, slot values and disfluency pieces, and an edit:
    an insertion clear of every span, or the replacement of exactly one span."""
    pieces = draw(st.lists(st.tuples(st.sampled_from(("plain", "span", "range")),
                                     st.text("ab ,", min_size=1, max_size=5)), max_size=8))
    text, spans, ranges = "", [], []
    for kind, piece in pieces:
        if kind == "span":
            spans.append((f"s{len(spans)}", len(text), len(text) + len(piece)))
        elif kind == "range":
            ranges.append(DisfluencyMeta("FP", 0, piece, start=len(text), end=len(text) + len(piece)))
        text += piece
    t = Turn(index=0, role=Role.USER, text=text, slot_spans=tuple(spans), disfluency=tuple(ranges))
    new = draw(st.text("xy", max_size=4))
    how = draw(st.sampled_from(("insert", "replace a span", "replace or delete")))
    if how == "replace a span" and spans:
        _, start, end = draw(st.sampled_from(spans))
    else:
        clear = [i for i in range(len(text) + 1) if not any(s < i < e for _, s, e in spans)]
        start = draw(st.sampled_from(clear))
        ends = [i for i in clear if i >= start and clear_of(spans, start, i)]
        end = start if how == "insert" else draw(st.sampled_from(ends))
    return t, start, end, new


@settings(max_examples=300)
@given(_turn_and_edit())
def test_edit_text_keeps_every_other_span_and_range_on_its_text(case):
    t, start, end, new = case
    out = edit_text(t, start, end, new)
    assert out.text == t.text[:start] + new + t.text[end:]
    kept = [(name, t.text[s:e]) for name, s, e in t.slot_spans if s != start or start == end]
    assert [(name, out.text[s:e]) for name, s, e in out.slot_spans] == kept
    expected = []
    for m in t.disfluency:
        old = t.text[m.start : m.end]
        if m.start < end and m.end > start:  # what remains outside the edit, and new if the range starts before it
            old = t.text[m.start : start] + new * (m.start < start) + t.text[max(m.start, end) : m.end]
        if old:
            expected.append(old)
    assert [out.text[n.start : n.end] for n in out.disfluency] == expected
    d = Dialogue(dialogue_id="e", source="generic", goal=make_goal(), turns=(t,))
    assert validate_dialogue(d) == []
    assert validate_dialogue(d.with_turns([out])) == []


class TestValidator:
    def test_well_formed_dialogue_passes(self, dialogue):
        assert validate_dialogue(dialogue) == []

    def test_user_turn_with_truncation_token_flagged(self):
        d = make_dialogue(texts=[(Role.USER, "stop <bargein>"), (Role.ASSISTANT, "ok")])
        rules = [v.rule for v in validate_dialogue(d)]
        assert "turn.bargein_token" in rules

    def test_span_bounds_violation(self):
        d = make_dialogue(spans={0: (("food", 0, 999),)})
        rules = [v.rule for v in validate_dialogue(d)]
        assert "turn.span_bounds" in rules

    def test_span_overlap_violation(self):
        d = make_dialogue(spans={0: (("a", 0, 6), ("b", 3, 9))})
        rules = [v.rule for v in validate_dialogue(d)]
        assert "turn.span_overlap" in rules
        # one violation per span that overlaps an earlier in-bounds span
        spans = (("a", 0, 6), ("b", 3, 9), ("c", 5, 7), ("d", 0, 999), ("e", 8, 10), ("f", 10, 12))
        found = [(v.rule, v.detail.split()[1]) for v in validate_dialogue(make_dialogue(spans={0: spans}))]
        assert found == [("turn.span_overlap", "'b'"), ("turn.span_overlap", "'c'"),
                         ("turn.span_bounds", "'d'"), ("turn.span_overlap", "'e'")]

    def test_empty_dialogue_flagged(self):
        d = Dialogue(dialogue_id="e", source="generic", goal=make_goal(), turns=())
        assert [(v.rule, v.turn_index) for v in validate_dialogue(d)] == [("turns.empty", None)]

    # A dialogue in memory holds no correction pointer: it is derived when the
    # dialogue is written, and a stored one is checked against it when read,
    # so `todvoice validate` reports a wrong one as the load error.
    def test_crossturn_pointer_names_the_correction(self):
        d = _dictation()
        assert validate_dialogue(d) == []
        assert dialogue_to_dict(d)["turns"][0]["crossturn"]["corrected_in_turn"] == 2
        assert _load_with_pointer(d, 0, 2) == d
        # dangling, on the assistant's confirmation, and missing
        for pointer in (99, 3, None):
            with pytest.raises(CorpusError) as info:
                _load_with_pointer(d, 0, pointer)
            assert str(info.value) == f"dialogue 'ct': turn 0: crossturn.corrected_in_turn must be 2, not {pointer}"
        misdirected = _dictation(fix_chunk=1)  # turn 2 re-dictates chunk 1, so nothing corrects chunk 0
        assert "corrected_in_turn" not in dialogue_to_dict(misdirected)["turns"][0]["crossturn"]
        with pytest.raises(CorpusError, match="^dialogue 'ct': turn 0: crossturn.corrected_in_turn must be null, not 2$"):
            _load_with_pointer(misdirected, 0, 2)

    def test_crossturn_pointer_only_on_erroneous_user_chunks(self):
        correct_chunk = _dictation(is_error=False)
        assert "corrected_in_turn" not in dialogue_to_dict(correct_chunk)["turns"][0]["crossturn"]
        # an erroneous chunk on an assistant turn is a confirmation, which no turn corrects
        for d, at in ((correct_chunk, 0), (_dictation(), 1)):
            assert _load_with_pointer(d, at, None) == d
            with pytest.raises(CorpusError, match=f"^dialogue 'ct': turn {at}: crossturn.corrected_in_turn must be null, not 2$"):
                _load_with_pointer(d, at, 2)

    def test_consecutive_same_role_flagged(self):
        d = make_dialogue(texts=[(Role.USER, "a"), (Role.USER, "b")])
        rules = [v.rule for v in validate_dialogue(d)]
        assert "turns.alternation" in rules

    def test_assistant_resume_after_bargein_allowed(self):
        meta = BargeInMeta(type=BargeInType.EFFICIENCY, style=BargeInStyle.IMPLICIT)
        turns = (
            Turn(index=0, role=Role.USER, text="find me a flight"),
            Turn(index=1, role=Role.ASSISTANT, text="Looking at <bargein>", bargein=meta),
            Turn(index=2, role=Role.USER, text="Uh-huh.", bargein=meta),
            Turn(index=3, role=Role.ASSISTANT, text="As I was saying."),
            Turn(index=4, role=Role.ASSISTANT, text="Here are the options."),
        )
        d = Dialogue(dialogue_id="x", source="generic", goal=make_goal(), turns=turns)
        rules = [v.rule for v in validate_dialogue(d)]
        assert "turns.alternation" not in rules

    def test_truncated_assistant_turn_must_end_with_token(self):
        meta = BargeInMeta(type=BargeInType.EFFICIENCY, style=BargeInStyle.IMPLICIT)
        d = make_dialogue(texts=[(Role.USER, "hi"), (Role.ASSISTANT, "truncated mid")])
        d = d.with_turns([d.turns[0], d.turns[1].with_(bargein=meta)])
        rules = [v.rule for v in validate_dialogue(d)]
        assert "turn.truncation" in rules

    def test_token_carrying_turn_needs_meta(self):
        d = make_dialogue(texts=[(Role.USER, "hi"), (Role.ASSISTANT, "wait <bargein>")])
        rules = [v.rule for v in validate_dialogue(d)]
        assert "turn.truncation_meta" in rules

    def test_disfluency_ranges_lie_in_the_text_in_order_and_clear_of_slot_spans(self):
        text = "uh, the centre please"
        fp = DisfluencyMeta("FP", 1, "uh,", start=0, end=4)

        def rules(spans, *metas):
            d = make_dialogue(texts=[(Role.USER, text)], spans={0: spans})
            return [v.rule for v in validate_dialogue(d.with_turns([d.turns[0].with_(disfluency=metas)]))]

        assert rules((("area", 8, 14),), fp) == []
        assert rules((("area", 3, 14),), fp) == ["turn.disfluency_range"]
        assert rules((("area", 0, 2),), fp) == ["turn.disfluency_range"]
        assert rules((), DisfluencyMeta("FP", 1, "uh,", start=20, end=24)) == ["turn.disfluency_range"]
        assert rules((), fp, DisfluencyMeta("FP", 1, "uh,", start=2, end=6)) == ["turn.disfluency_range"]

    def test_error_recovery_corrected_slots_checked_against_state(self):
        meta = BargeInMeta(
            type=BargeInType.ERROR_RECOVERY, style=BargeInStyle.RAW,
            erroneous_slots={"destination": "London"},
            corrected_slots={"destination": "Berlin"},
        )
        turns = (
            Turn(index=0, role=Role.USER, text="to Paris please", state={"destination": "Paris"}),
            Turn(index=1, role=Role.ASSISTANT, text="flight to Lon <bargein>", bargein=meta),
            Turn(index=2, role=Role.USER, text="No, that's wrong.", bargein=meta),
            Turn(index=3, role=Role.ASSISTANT, text="Sorry, Paris."),
        )
        d = Dialogue(dialogue_id="x", source="generic", goal=make_goal(), turns=turns)
        rules = [v.rule for v in validate_dialogue(d)]
        assert "turn.bargein_slots" in rules


def test_single_mutation_catalog_is_detected(dialogue):
    """Each listed corruption of a valid dialogue must produce a violation."""
    assert validate_dialogue(dialogue) == []
    t0 = dialogue.turns[0]
    mutations = [
        dataclasses.replace(dialogue, turns=(t0.with_(role=Role.ASSISTANT),) + dialogue.turns[1:]),
        dataclasses.replace(dialogue, turns=(t0.with_(slot_spans=(("x", 2, 1),)),) + dialogue.turns[1:]),
        dataclasses.replace(dialogue, turns=(t0.with_(slot_spans=(("x", 0, 4), ("y", 2, 6))),) + dialogue.turns[1:]),
        dataclasses.replace(dialogue, turns=(t0.with_(text="oi <bargein>"),) + dialogue.turns[1:]),
    ]
    for mutant in mutations:
        assert validate_dialogue(mutant), "mutation went undetected"


class TestFluentProjection:
    """fluent_text cuts the disfluency ranges out; tagged_text marks them."""

    def test_identity_without_markers(self):
        t = Turn(index=0, role=Role.USER, text="plain text")
        assert fluent_text(t) == tagged_text(t) == "plain text"

    def test_fp_example(self):
        t = Turn(
            index=0, role=Role.USER, text="uh, we should go there.",
            disfluency=(DisfluencyMeta(type="FP", position=0, inserted_span="uh,", start=0, end=4),),
        )
        assert fluent_text(t) == "we should go there."
        assert tagged_text(t) == "[FP] uh, we should go there."

    def test_rep_example_with_punctuated_span(self):
        # The copy of "I mean," leaves its comma behind; the range is read
        # back from where the marker sits in the stored tagged text.
        t = turn_from_dict({
            "role": "user", "text": "I mean, I mean, I don't know.", "tagged": "I mean [REP] I mean, I don't know.",
            "disfluency": [{"type": "REP", "position": 1, "inserted_span": "I mean"}],
        }, 0)
        assert (t.disfluency[0].start, t.disfluency[0].end) == (6, 14)
        assert fluent_text(t) == "I mean, I don't know."

    def test_rep_gold_member_example(self):
        t = Turn(
            index=0, role=Role.USER, text="I'm a Gold member, Gold member, not Bronze.",
            disfluency=(DisfluencyMeta(type="REP", position=3, inserted_span="Gold member", start=17, end=30),),
        )
        assert fluent_text(t) == "I'm a Gold member, not Bronze."
        assert tagged_text(t) == "I'm a Gold member [REP] Gold member, not Bronze."

    def test_cor_projection_contains_correct_value(self):
        t = Turn(
            index=0, role=Role.USER, text="on Friday— no, Saturday.",
            disfluency=(DisfluencyMeta(type="COR", position=1, inserted_span="Friday",
                                       original_value="Saturday", start=3, end=15),),
        )
        assert fluent_text(t) == "on Saturday."
        assert tagged_text(t) == "on Friday— [COR] no, Saturday."

    def test_malformed_tag_raises(self):
        record = {
            "role": "user", "text": "whatever", "tagged": "no such [REP] marker content here",
            "disfluency": [{"type": "REP", "position": 0, "inserted_span": "absent"}],
        }
        with pytest.raises(CorpusError, match="^turn 3: tagged must be the text with a marker at each disfluency"):
            turn_from_dict(record, 3)


class TestJsonRoundTrip:
    def test_dialogue_round_trip(self, dialogue):
        again = loads_dialogue(dumps_dialogue(dialogue))
        assert again == dialogue

    def test_round_trip_preserves_behavior_metadata(self):
        meta = BargeInMeta(type=BargeInType.CLARIFICATION, style=BargeInStyle.INTERPRETED)
        dmeta = DisfluencyMeta(type="FP", position=0, inserted_span="uh,", start=0, end=4)
        turns = (
            Turn(index=0, role=Role.USER, text="uh, hello",
                 disfluency=(dmeta,), emotion=Emotion.EXCITED, state={"x": "1"}),
            Turn(index=1, role=Role.ASSISTANT, text="one moment <bargein>", bargein=meta),
            Turn(index=2, role=Role.USER, text="What's a PNR?", bargein=meta),
            Turn(index=3, role=Role.ASSISTANT, text="A booking code."),
        )
        d = Dialogue(dialogue_id="rt", source="generic", goal=make_goal(), turns=turns)
        again = loads_dialogue(dumps_dialogue(d))
        assert again == d
        assert again.turns[0].disfluency[0].inserted_span == "uh,"
        assert again.turns[1].bargein.style is BargeInStyle.INTERPRETED

    def test_round_trip_keeps_an_empty_state(self):
        d = with_states(make_dialogue(), {0: {}})
        again = loads_dialogue(dumps_dialogue(d))
        assert again == d
        assert again.turns[0].state == {} and again.turns[1].state is None
        assert again.state_at(3) == {}

    def test_state_loads_only_as_a_string_map_or_null(self):
        assert turn_from_dict({"role": "user", "text": "hi", "state": None}, 0).state is None
        assert turn_from_dict({"role": "user", "text": "hi", "state": {"a": "b"}}, 0).state == {"a": "b"}
        for bad in (5, ["ab"], {"a": 1}, "a"):
            with pytest.raises(CorpusError, match="^turn 3: state must be"):
                turn_from_dict({"role": "user", "text": "hi", "state": bad}, 3)

    def test_correction_pointer_loads_only_as_an_integer_or_null(self):
        d = _dictation()
        assert _load_with_pointer(d, 0, 2) == d
        assert _load_with_pointer(d, 1, None) == d
        for bad in ("2", 2.0, True):
            with pytest.raises(CorpusError, match="^dialogue 'ct': turn 0: crossturn.corrected_in_turn must be an integer or null"):
                _load_with_pointer(d, 0, bad)

    def test_round_trip_writes_the_derived_correction_pointer(self):
        d = _dictation()
        text = dumps_dialogue(d)
        assert '"is_error": true, "corrected_in_turn": 2}' in text
        assert loads_dialogue(text) == d

    def test_corpus_file_round_trip(self, tmp_path, dialogue):
        other = make_dialogue(dialogue_id="dlg-0002")
        path = tmp_path / "corpus.jsonl"
        save_corpus([dialogue, other], path)
        back = load_corpus(path)
        assert back == [dialogue, other]

    def test_load_corpus_accepts_json_array(self, tmp_path, dialogue):
        path = tmp_path / "corpus.json"
        path.write_text(f"[{dumps_dialogue(dialogue)}]", encoding="utf-8")
        assert load_corpus(path) == [dialogue]

    def test_to_dict_uses_documented_field_names(self, dialogue):
        doc = dialogue_to_dict(dialogue)
        assert set(doc) >= {"dialogue_id", "source", "goal", "turns"}
        assert set(doc["goal"]) == {"text", "structured"}
        row = doc["turns"][0]
        assert set(row) >= {"role", "text"}
        assert dialogue_from_dict(doc) == dialogue
