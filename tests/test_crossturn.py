"""Slot dictation: segmentation, expansion, error correction, reconstruction."""

from __future__ import annotations

import random
import string

import pytest
from hypothesis import given, settings, strategies as st

from todvoice.corpus import (
    DisfluencyMeta, Role, Turn, corrections, dumps_dialogue, fluent_text, loads_dialogue, tagged_text, validate_dialogue,
)
from todvoice.crossturn import (
    CrossTurnConfig,
    apply_crossturn_stage,
    corrupt_chunk,
    is_segmentable,
    reconstruct_value,
    render_dictation,
    segment_value,
    segmentable_slots,
)
from todvoice.seeding import rng_for

from conftest import dictate, make_dialogue, states_of, with_states


class TestIsSegmentable:
    @pytest.mark.parametrize("value,expected", [
        ("0123456789", True),
        ("cheap", False),
        ("AB12CD", True),
        ("jane@example.com", True),
        ("1234567", True),
        ("123456", False),
        ("AB1C", False),
    ])
    def test_examples(self, value, expected):
        assert is_segmentable(value) is expected


class TestSegmentValue:
    def test_numeric_greedy_three_with_remainder_merge(self):
        assert segment_value("0123456789") == ["012", "345", "6789"]

    def test_numeric_exact_multiple(self):
        assert segment_value("123456789") == ["123", "456", "789"]

    def test_numeric_remainder_two_becomes_two_four_chunks(self):
        # 3+3+2 would leave a 2-digit chunk; lengths must stay in {3, 4}
        assert segment_value("12345678") == ["1234", "5678"]

    def test_email_split(self):
        assert segment_value("john.doe@mail.com") == ["john dot doe", "at mail dot com"]

    def test_alphanumeric_code_runs(self):
        assert segment_value("TR0609") == ["TR", "0609"]

    def test_long_digit_run_inside_code_resplit(self):
        chunks = segment_value("AB1234567")
        assert chunks[0] == "AB"
        assert chunks[1:] == ["123", "456", "7"] or all(len(c) in (3, 4) for c in chunks[1:])

    def test_numeric_chunk_lengths_always_3_or_4(self):
        rng = random.Random(0)
        for _ in range(200):
            digits = "".join(rng.choice(string.digits) for _ in range(rng.randint(7, 16)))
            for chunk in segment_value(digits):
                assert len(chunk) in (3, 4)

    def test_non_segmentable_rejected(self):
        with pytest.raises(ValueError):
            segment_value("cheap")


def _dictation_dialogue(value="0123456789"):
    text = f"My number is {value} thanks."
    start = text.index(value)
    return make_dialogue(
        texts=[
            (Role.USER, text),
            (Role.ASSISTANT, "Noted."),
        ],
        spans={0: (("phone", start, start + len(value)),)},
    )


class TestExpandTurn:
    def test_no_error_block_shape(self):
        d = _dictation_dialogue()
        out = dictate(d, 0, "phone", ["012", "345", "6789"],
                      rng_for(0, "x"), CrossTurnConfig(p_error=0.0))
        # one user turn per chunk, each with an assistant confirmation
        block = [t for t in out.turns if t.crossturn is not None]
        assert len(block) == 6
        roles = [t.role for t in block]
        assert roles == [Role.USER, Role.ASSISTANT] * 3
        assert reconstruct_value(out, "phone") == ["0123456789"]

    def test_error_appends_correction_pair(self):
        d = _dictation_dialogue()
        out = dictate(d, 0, "phone", ["012", "345", "6789"],
                      rng_for(1, "err"), CrossTurnConfig(p_error=1.0))
        block = [t for t in out.turns if t.crossturn is not None]
        assert len(block) == 8
        errors = [t for t in block if t.crossturn.is_error and t.role is Role.USER]
        assert len(errors) == 1
        (fix,) = corrections(out.turns).values()
        corr = out.turns[fix]
        assert corr.role is Role.USER
        assert corr.text.startswith("Wait, I meant")
        assert reconstruct_value(out, "phone") == ["0123456789"]

    def test_email_reconstructs_from_its_spoken_chunks(self):
        value = "john.doe@mail.com"
        out = dictate(_dictation_dialogue(value), 0, "phone", segment_value(value),
                      rng_for(1, "err"), CrossTurnConfig(p_error=1.0))
        assert reconstruct_value(out, "phone") == [value]

    def test_downstream_indices_renumbered(self):
        d = _dictation_dialogue()
        out = dictate(d, 0, "phone", ["012", "345", "6789"],
                      rng_for(0, "x"), CrossTurnConfig(p_error=0.0))
        assert [t.index for t in out.turns] == list(range(len(out.turns)))

    def test_missing_span_rejected(self):
        d = _dictation_dialogue()
        with pytest.raises(ValueError):
            dictate(d, 0, "absent", ["012", "345"], rng_for(0, "x"))

    def test_zero_error_rate_boundary(self):
        cfg = CrossTurnConfig(p_error=0.0)
        rng = rng_for(3, "zero")
        for _ in range(300):
            out = dictate(_dictation_dialogue(), 0, "phone", ["012", "345", "6789"], rng, cfg)
            assert not any(t.crossturn.is_error for t in out.turns if t.crossturn)


def test_error_rate_tracks_p_error():
    cfg = CrossTurnConfig(p_error=0.20)
    rng = rng_for(11, "rate")
    hits = 0
    n = 10_000
    for _ in range(n):
        out = dictate(_dictation_dialogue(), 0, "phone", ["012", "345", "6789"], rng, cfg)
        if any(t.crossturn.is_error for t in out.turns if t.crossturn):
            hits += 1
    assert abs(hits / n - 0.20) <= 0.02


@settings(max_examples=300)
@given(st.text(alphabet=string.ascii_uppercase + string.digits, min_size=7, max_size=18),
       st.integers(min_value=0, max_value=2**31))
def test_reconstruction_property(value, seed):
    if not is_segmentable(value):
        return
    chunks = segment_value(value)
    if len(chunks) < 2:
        return
    d = _dictation_dialogue(value)
    out = dictate(d, 0, "phone", chunks, random.Random(seed), CrossTurnConfig(p_error=0.5))
    assert reconstruct_value(out, "phone") == [value]


def test_corrupt_chunk_stays_in_class():
    rng = random.Random(5)
    for chunk in ("012", "ABC", "A1B2"):
        for _ in range(50):
            bad = corrupt_chunk(chunk, rng)
            assert bad != chunk
            assert len(bad) == len(chunk)
            for orig, new in zip(chunk, bad):
                if orig != new:
                    assert orig.isdigit() == new.isdigit()


def test_render_dictation_vocalizes_digits_and_email_symbols():
    assert render_dictation("012") == "zero one two"
    assert render_dictation("at mail dot com") == "at mail dot com"
    assert "dot" in render_dictation("john dot doe")


class TestStage:
    def test_stage_keeps_alternation(self):
        d = make_dialogue(
            texts=[
                (Role.USER, "Call me at 0123456789 please."),
                (Role.ASSISTANT, "Saved. Anything else?"),
                (Role.USER, "No thanks."),
                (Role.ASSISTANT, "Goodbye."),
            ],
            spans={0: (("phone", 11, 21),)},
        )
        out = apply_crossturn_stage(d, CrossTurnConfig(p_error=1.0), rng_for(0, d.dialogue_id, "xt"))
        assert len(out.turns) > len(d.turns)
        assert validate_dialogue(out) == []
        assert reconstruct_value(out, "phone") == ["0123456789"]

    def test_stage_merges_final_confirmation_into_next_assistant_turn(self):
        d = make_dialogue(
            texts=[
                (Role.USER, "Call me at 0123456789 please."),
                (Role.ASSISTANT, "Saved. Anything else?"),
            ],
            spans={0: (("phone", 11, 21),)},
        )
        out = apply_crossturn_stage(d, CrossTurnConfig(p_error=0.0), rng_for(0, d.dialogue_id, "xt"))
        last = out.turns[-1]
        assert last.role is Role.ASSISTANT
        assert "Saved. Anything else?" in last.text
        assert last.crossturn is not None

    def test_disfluency_ranges_move_with_the_text_they_are_in(self):
        d = make_dialogue(
            texts=[(Role.USER, "uh, call me at 0123456789 um, please."), (Role.ASSISTANT, "well, saved.")],
            spans={0: (("phone", 15, 25),)},
        )
        user, assistant = d.turns
        d = d.with_turns([
            user.with_(disfluency=(DisfluencyMeta("FP", 0, "uh,", start=0, end=4),
                                   DisfluencyMeta("FP", 5, "um,", start=26, end=30))),
            assistant.with_(disfluency=(DisfluencyMeta("DM", 0, "well,", start=0, end=6),)),
        ])
        out = apply_crossturn_stage(d, CrossTurnConfig(p_error=0.0), rng_for(0, d.dialogue_id, "xt"))
        first, last = out.turns[0], out.turns[-1]
        assert tagged_text(first) == "[FP] uh, call me at zero one two [FP] um, please."
        assert fluent_text(first) == "call me at zero one two please."
        assert tagged_text(last) == "Got it, six seven eight nine. [DM] well, saved."
        assert fluent_text(last) == "Got it, six seven eight nine. saved."
        assert validate_dialogue(out) == []
        assert loads_dialogue(dumps_dialogue(out)) == out

    def test_states_stay_on_their_turns(self):
        d = make_dialogue(
            texts=[
                (Role.USER, "Call me at 0123456789 please."),
                (Role.ASSISTANT, "Saved. Anything else?"),
                (Role.USER, "No thanks."),
                (Role.ASSISTANT, "Goodbye."),
            ],
            spans={0: (("phone", 11, 21),)},
        )
        d = with_states(d, {0: {"phone": "0123456789"}, 1: {"phone": "0123456789", "x": "1"}, 2: {"x": "2"}})
        out = apply_crossturn_stage(d, CrossTurnConfig(p_error=1.0), rng_for(0, d.dialogue_id, "xt"))
        folded = next(t for t in out.turns if "Saved. Anything else?" in t.text)
        assert out.turns[0].crossturn is not None and folded.crossturn is not None
        # the first dictation turn and the folded assistant turn keep their
        # states; the inserted dictation turns carry none
        assert states_of(out) == {
            0: d.turns[0].state,
            folded.index: d.turns[1].state,
            folded.index + 1: d.turns[2].state,
        }

    def test_stage_moves_the_pointers_of_a_later_dictation_block(self):
        d = make_dialogue(
            texts=[
                (Role.USER, "Call me at 0123456789 please."),
                (Role.ASSISTANT, "Saved."),
                (Role.USER, "My code is AB12345."),
                (Role.ASSISTANT, "Thanks."),
            ],
            spans={2: (("code", 11, 18),)},
        )
        d = apply_crossturn_stage(d, CrossTurnConfig(p_error=1.0), rng_for(0, "code", "xt"))
        d = d.with_turns([d.turns[0].with_(slot_spans=(("phone", 11, 21),))] + list(d.turns[1:]))
        out = apply_crossturn_stage(d, CrossTurnConfig(p_error=0.0), rng_for(0, "phone", "xt"))
        (err,) = [t for t in out.user_turns() if t.crossturn and t.crossturn.is_error]
        fix = corrections(out.turns)[err.index]
        assert out.turns[fix].text.startswith("Wait, I meant")
        assert f'"corrected_in_turn": {fix}' in dumps_dialogue(out)
        assert loads_dialogue(dumps_dialogue(out)) == out
        assert (reconstruct_value(out, "phone"), reconstruct_value(out, "code")) == (["0123456789"], ["AB12345"])

    @pytest.mark.parametrize("p_error", [0.0, 1.0])
    def test_two_blocks_of_one_slot_reconstruct_apart(self, p_error):
        # Keyed by slot alone, these chunks once rebuilt as "987654326789".
        d = make_dialogue(
            texts=[
                (Role.USER, "Call me at 0123456789 please."),
                (Role.ASSISTANT, "Saved."),
                (Role.USER, "No, use 98765432 instead."),
                (Role.ASSISTANT, "Updated."),
            ],
            spans={0: (("phone", 11, 21),), 2: (("phone", 8, 16),)},
        )
        out = apply_crossturn_stage(d, CrossTurnConfig(p_error=p_error), rng_for(0, "two", "xt"))
        assert validate_dialogue(out) == []
        assert len(corrections(out.turns)) == (2 if p_error else 0)
        assert reconstruct_value(out, "phone") == ["0123456789", "98765432"]

    def test_stage_ignores_dialogues_without_segmentable_slots(self, dialogue):
        out = apply_crossturn_stage(dialogue, CrossTurnConfig(), rng_for(0, "none", "xt"))
        assert out == dialogue

    def test_segmentable_slots_in_span_order(self):
        text = "Code AB12CD then phone 0123456789."
        t = Turn(index=0, role=Role.USER, text=text, slot_spans=(
            ("phone", text.index("0123"), text.index("0123") + 10),
            ("code", 5, 11),
        ))
        names = [n for n, _ in segmentable_slots(t)]
        assert names == ["code", "phone"]
