"""Emotion labeling: judging, inheritance, keyword sampling for style instructions."""

from __future__ import annotations

import dataclasses

import pytest

from todvoice.clients import StubChatClient
from todvoice.corpus import CrossTurnMeta, Emotion, Role, Turn
from todvoice.emotion import (
    annotate_dialogue,
    annotate_turn,
    inherit_labels,
    parse_label,
)
from todvoice.prompts import EMOTION_LABELS_BLOCK, KEYWORDS, context_string
from todvoice.seeding import rng_for
from todvoice.synthesis import style_instruction

from conftest import RejectingChat, make_dialogue


def _seg_meta(i=0):
    return CrossTurnMeta(slot_name="phone", chunk_index=i, chunk_text="012")


class TestParseLabel:
    @pytest.mark.parametrize("reply,expected", [
        ("6", Emotion.SATISFIED),
        ("0", Emotion.NEUTRAL),
        ("The label is 3.", Emotion.APOLOGETIC),
        ("42", None),
        ("none", None),
        ("7", None),
    ])
    def test_examples(self, reply, expected):
        assert parse_label(reply) == expected


class TestAnnotateTurn:
    def test_thank_you_maps_to_satisfied(self):
        t = Turn(index=0, role=Role.USER, text="Thank you so much, that was great!")
        got = annotate_turn("", t, StubChatClient())
        assert got is Emotion.SATISFIED

    def test_default_path_is_neutral(self):
        t = Turn(index=0, role=Role.USER, text="I want a table for two.")
        assert annotate_turn("", t, StubChatClient()) is Emotion.NEUTRAL

    def test_assistant_turn_rejected(self):
        t = Turn(index=0, role=Role.ASSISTANT, text="Certainly.")
        with pytest.raises(ValueError):
            annotate_turn("", t, StubChatClient())

    def test_segment_turn_rejected(self):
        t = Turn(index=0, role=Role.USER, text="Then 345.", crossturn=_seg_meta(1))
        with pytest.raises(ValueError):
            annotate_turn("", t, StubChatClient())

    def test_malformed_reply_falls_back_to_neutral(self):
        class Garbled(StubChatClient):
            def chat(self, messages):
                return "no digits here"

        t = Turn(index=0, role=Role.USER, text="whatever")
        assert annotate_turn("", t, Garbled()) is Emotion.NEUTRAL

    def test_permanent_client_error_is_sent_once(self):
        judge = RejectingChat()
        t = Turn(index=0, role=Role.USER, text="Thank you so much, that was great!")
        assert annotate_turn("", t, judge) is Emotion.NEUTRAL
        assert judge.calls == 1


class TestInheritance:
    def test_segments_inherit_from_anchor(self):
        turns = (
            Turn(index=0, role=Role.USER, text="My number is 012.", emotion=Emotion.EXCITED,
                 crossturn=None),
            Turn(index=1, role=Role.ASSISTANT, text="Got it."),
            Turn(index=2, role=Role.USER, text="Then 345.", crossturn=_seg_meta(1)),
            Turn(index=3, role=Role.ASSISTANT, text="Got it."),
            Turn(index=4, role=Role.USER, text="Then 678.", crossturn=_seg_meta(2)),
            Turn(index=5, role=Role.ASSISTANT, text="Noted."),
        )
        d = dataclasses.replace(make_dialogue(), turns=turns)
        d = dataclasses.replace(d, turns=tuple(
            t.with_(emotion=Emotion.EXCITED) if t.index == 0 else t for t in turns))
        out = inherit_labels(d)
        assert out.turns[2].emotion is Emotion.EXCITED
        assert out.turns[4].emotion is Emotion.EXCITED

    def test_assistant_turns_are_neutral(self):
        d = make_dialogue()
        d = dataclasses.replace(d, turns=tuple(
            t.with_(emotion=Emotion.ABUSIVE) for t in d.turns))
        out = inherit_labels(d)
        for t in out.turns:
            if t.role is Role.ASSISTANT:
                assert t.emotion is Emotion.NEUTRAL

    def test_leading_segment_defaults_to_neutral(self):
        turns = (
            Turn(index=0, role=Role.USER, text="012.", crossturn=_seg_meta(0)),
            Turn(index=1, role=Role.ASSISTANT, text="Got it."),
        )
        d = dataclasses.replace(make_dialogue(), turns=turns)
        out = inherit_labels(d)
        assert out.turns[0].emotion is Emotion.NEUTRAL

    def test_dialogue_without_segments_keeps_user_labels(self):
        d = make_dialogue()
        d = dataclasses.replace(d, turns=tuple(
            t.with_(emotion=Emotion.DISSATISFIED if t.role is Role.USER else None)
            for t in d.turns))
        out = inherit_labels(d)
        for t in out.turns:
            if t.role is Role.USER:
                assert t.emotion is Emotion.DISSATISFIED

    def test_labelled_turns_kept_as_they_are(self):
        turns = (
            Turn(index=0, role=Role.USER, text="My number is 012.", emotion=Emotion.EXCITED),
            Turn(index=1, role=Role.ASSISTANT, text="Got it."),
            Turn(index=2, role=Role.USER, text="Then 345.", crossturn=_seg_meta(1)),
            Turn(index=3, role=Role.ASSISTANT, text="Noted."),
        )
        d = inherit_labels(dataclasses.replace(make_dialogue(), turns=turns))
        assert [t.emotion for t in d.turns] == [Emotion.EXCITED, Emotion.NEUTRAL] * 2
        out = inherit_labels(d)
        assert all(a is b for a, b in zip(out.turns, d.turns, strict=True))

    def test_every_turn_labeled_after_inherit(self):
        d = make_dialogue()
        out = annotate_dialogue(d, StubChatClient())
        assert all(t.emotion is not None for t in out.turns)


class TestAnnotateDialogue:
    def test_skip_labeled_keeps_provided_labels(self):
        d = make_dialogue(source="emowoz")
        d = dataclasses.replace(d, turns=tuple(
            t.with_(emotion=Emotion.FEARFUL) if t.index == 0 else t for t in d.turns))
        out = annotate_dialogue(d, StubChatClient(), skip_labeled=True)
        assert out.turns[0].emotion is Emotion.FEARFUL

    def test_unlabeled_turns_still_judged_when_skipping(self):
        d = make_dialogue(texts=[
            (Role.USER, "Thank you so much, that was great!"),
            (Role.ASSISTANT, "You're welcome."),
        ])
        out = annotate_dialogue(d, StubChatClient(), skip_labeled=True)
        assert out.turns[0].emotion is Emotion.SATISFIED


def _keyword(label, rng):
    """The keyword synthesis puts in a turn's style instruction."""
    return style_instruction(label, rng).removeprefix("Please speak in a ").removesuffix(" tone.")


class TestKeywords:
    def test_label_set_matches_rubric(self):
        assert set(KEYWORDS) == set(Emotion)
        assert KEYWORDS[Emotion.DISSATISFIED] == ("angry", "contempt", "disgusted", "defiant")

    def test_judge_prompt_lists_each_label_with_its_keywords(self):
        # Derived from KEYWORDS; pinned so the judge prompt stays byte-identical.
        assert EMOTION_LABELS_BLOCK == (
            "0 neutral: calm, indifferent, patient, relaxed\n"
            "1 fearful: fearful, shocked, surprised\n"
            "2 dissatisfied: angry, contempt, disgusted, defiant\n"
            "3 apologetic: compassionate, selfless, humble\n"
            "4 abusive: commanding, authoritative, merciless, loud, vengeful\n"
            "5 excited: adventurous, energetic, passionate, curious, creative, joyful\n"
            "6 satisfied: proud, hopeful, happy, cheerful"
        )

    def test_style_instruction_draws_from_label_set(self):
        rng = rng_for(0, "kw")
        for _ in range(50):
            assert _keyword(Emotion.DISSATISFIED, rng) in KEYWORDS[Emotion.DISSATISFIED]

    def test_excited_keywords_roughly_uniform(self):
        rng = rng_for(1, "kwfreq")
        counts: dict[str, int] = {}
        n = 10_000
        for _ in range(n):
            kw = _keyword(Emotion.EXCITED, rng)
            counts[kw] = counts.get(kw, 0) + 1
        assert set(counts) == set(KEYWORDS[Emotion.EXCITED])
        for c in counts.values():
            assert abs(c / n - 1 / 6) <= 0.02


def test_context_string_includes_roles_and_window():
    d = make_dialogue()
    ctx = context_string(d.turns[:3])
    assert "user:" in ctx and "assistant:" in ctx
    assert d.turns[2].text in ctx
    long = make_dialogue(texts=[(Role.USER if i % 2 == 0 else Role.ASSISTANT, f"t{i}") for i in range(10)])
    assert context_string(long.turns[:9]).splitlines() == [
        f"{'user' if i % 2 == 0 else 'assistant'}: t{i}" for i in range(3, 9)
    ]
