"""Emotion labeling: judging, inheritance, keyword sampling for style instructions."""

from __future__ import annotations

import dataclasses

import pytest

from todvoice.clients import ChatClient, StubChatClient
from todvoice.corpus import CrossTurnMeta, Emotion, Role, Turn
from todvoice.emotion import annotate_dialogue, parse_label
from todvoice.prompts import EMOTION_LABELS_BLOCK, KEYWORDS, context_string, emotion_prompt
from todvoice.seeding import rng_for
from todvoice.synthesis import style_instruction

from conftest import RejectingChat, make_dialogue


def _seg_meta(i=0):
    return CrossTurnMeta(slot_name="phone", chunk_index=i, chunk_text="012")


def _dialogue_of(turns):
    """make_dialogue()'s goal and ids around the given turns."""
    return dataclasses.replace(make_dialogue(), turns=tuple(turns))


def _label_of(text, judge):
    """The label annotate_dialogue gives the one user turn of a two-turn dialogue."""
    d = make_dialogue(texts=[(Role.USER, text), (Role.ASSISTANT, "Certainly.")])
    return annotate_dialogue(d, judge).turns[0].emotion


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
        assert _label_of("Thank you so much, that was great!", StubChatClient()) is Emotion.SATISFIED

    def test_default_path_is_neutral(self):
        assert _label_of("I want a table for two.", StubChatClient()) is Emotion.NEUTRAL

    def test_malformed_reply_falls_back_to_neutral(self):
        class Garbled(StubChatClient):
            def chat(self, messages):
                return "no digits here"

        assert _label_of("Thank you so much, that was great!", Garbled()) is Emotion.NEUTRAL

    def test_permanent_client_error_is_sent_once(self):
        judge = RejectingChat()
        assert _label_of("Thank you so much, that was great!", judge) is Emotion.NEUTRAL
        assert judge.calls == 1

    def test_judge_asked_once_per_non_segment_user_turn(self):
        class Recording(ChatClient):
            def __init__(self):
                self.prompts = []

            def chat(self, messages):
                self.prompts.append(messages[-1]["content"])
                return "5"

        d = _dialogue_of([
            Turn(index=0, role=Role.USER, text="My number is 012."),
            Turn(index=1, role=Role.ASSISTANT, text="Got it."),
            Turn(index=2, role=Role.USER, text="Then 345.", crossturn=_seg_meta(1)),
            Turn(index=3, role=Role.ASSISTANT, text="Got it."),
            Turn(index=4, role=Role.USER, text="That is all, thanks."),
            Turn(index=5, role=Role.ASSISTANT, text="Noted."),
        ])
        judge = Recording()
        out = annotate_dialogue(d, judge)
        assert judge.prompts == [emotion_prompt(context_string(d.turns[:i]), d.turns[i].text) for i in (0, 4)]
        assert [t.emotion for t in out.turns] == [Emotion.EXCITED, Emotion.NEUTRAL] * 3


class TestInheritance:
    """Labels given and skip_labeled set, so no user turn is judged."""

    def test_segments_inherit_from_anchor(self):
        d = _dialogue_of([
            Turn(index=0, role=Role.USER, text="My number is 012.", emotion=Emotion.EXCITED),
            Turn(index=1, role=Role.ASSISTANT, text="Got it."),
            Turn(index=2, role=Role.USER, text="Then 345.", crossturn=_seg_meta(1)),
            Turn(index=3, role=Role.ASSISTANT, text="Got it."),
            Turn(index=4, role=Role.USER, text="Then 678.", crossturn=_seg_meta(2)),
            Turn(index=5, role=Role.ASSISTANT, text="Noted."),
        ])
        out = annotate_dialogue(d, RejectingChat(), skip_labeled=True)
        assert out.turns[2].emotion is Emotion.EXCITED
        assert out.turns[4].emotion is Emotion.EXCITED

    def test_assistant_turns_are_neutral(self):
        d = make_dialogue()
        d = d.with_turns(tuple(t.with_(emotion=Emotion.ABUSIVE) for t in d.turns))
        out = annotate_dialogue(d, RejectingChat(), skip_labeled=True)
        assert [t.emotion for t in out.turns] == [Emotion.ABUSIVE, Emotion.NEUTRAL] * 2

    def test_leading_segment_defaults_to_neutral(self):
        d = _dialogue_of([
            Turn(index=0, role=Role.USER, text="012.", crossturn=_seg_meta(0)),
            Turn(index=1, role=Role.ASSISTANT, text="Got it."),
        ])
        out = annotate_dialogue(d, RejectingChat(), skip_labeled=True)
        assert out.turns[0].emotion is Emotion.NEUTRAL

    def test_dialogue_without_segments_keeps_user_labels(self):
        d = make_dialogue()
        d = d.with_turns(tuple(
            t.with_(emotion=Emotion.DISSATISFIED if t.role is Role.USER else None)
            for t in d.turns))
        out = annotate_dialogue(d, RejectingChat(), skip_labeled=True)
        for t in out.turns:
            if t.role is Role.USER:
                assert t.emotion is Emotion.DISSATISFIED

    def test_labelled_turns_kept_as_they_are(self):
        d = annotate_dialogue(_dialogue_of([
            Turn(index=0, role=Role.USER, text="My number is 012.", emotion=Emotion.EXCITED),
            Turn(index=1, role=Role.ASSISTANT, text="Got it."),
            Turn(index=2, role=Role.USER, text="Then 345.", crossturn=_seg_meta(1)),
            Turn(index=3, role=Role.ASSISTANT, text="Noted."),
        ]), RejectingChat(), skip_labeled=True)
        assert [t.emotion for t in d.turns] == [Emotion.EXCITED, Emotion.NEUTRAL] * 2
        out = annotate_dialogue(d, RejectingChat(), skip_labeled=True)
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
