"""Source-format adapters: span recovery, goal reconstruction, merging."""

from __future__ import annotations

import pytest

from todvoice.corpus import Emotion, Role, dialogue_to_dict
from todvoice.ingest import (
    adapt,
    align_placeholders,
    locate_slot_spans,
    template_goal_text,
)
from todvoice.corpus import SubGoal

from conftest import make_dialogue, states_of


class TestLocateSlotSpans:
    def test_unique_exact_match(self):
        report = locate_slot_spans("book for two", [("people", "two")])
        assert report.matched == (("people", 9, 12),)
        assert report.unmatched == ()

    def test_absent_value_reported(self):
        report = locate_slot_spans("book a table", [("people", "two")])
        assert report.matched == ()
        assert report.unmatched == (("people", "two"),)

    def test_leftmost_occurrence_chosen(self):
        text = "two plus two is four"
        report = locate_slot_spans(text, [("n", "two")])
        starts = [i for i in range(len(text)) if text.startswith("two", i)]
        assert report.matched[0][1] == min(starts)

    def test_non_overlapping_placement(self):
        report = locate_slot_spans("aa aa", [("x", "aa"), ("y", "aa")])
        assert report.matched == (("x", 0, 2), ("y", 3, 5))

    def test_empty_value_reported(self):
        report = locate_slot_spans("anything", [("x", "")])
        assert report.unmatched == (("x", ""),)

    def test_spans_reslice_to_values(self):
        text = "call me at 555-0102 after six"
        values = [("phone", "555-0102"), ("time", "six")]
        report = locate_slot_spans(text, values)
        lookup = dict((n, v) for n, v in values)
        for name, s, e in report.matched:
            assert text[s:e] == lookup[name]


class TestGenericAdapter:
    def test_identity_round_trip(self):
        d = make_dialogue(spans={0: (("price", 9, 14),)})
        got = adapt("generic", dialogue_to_dict(d))
        assert got == d

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="unknown source 'mystery'"):
            adapt("mystery", {})


def _sgd_turn(speaker, text, slots=(), state=None, service="Restaurants_1"):
    frame = {"service": service}
    if slots:
        frame["slots"] = [
            {"slot": name, "start": text.find(value), "exclusive_end": text.find(value) + len(value)}
            for name, value in slots
        ]
    if state is not None:
        frame["state"] = state
    return {"speaker": speaker, "utterance": text, "frames": [frame]}


def _sgd_fixture():
    return {
        "dialogue_id": "sgd-001",
        "turns": [
            _sgd_turn(
                "USER",
                "I want a restaurant in Oakland serving thai food.",
                slots=[("city", "Oakland"), ("cuisine", "thai")],
                state={
                    "active_intent": "FindRestaurants",
                    "slot_values": {"city": ["Oakland"], "cuisine": ["thai"]},
                    "requested_slots": [],
                },
            ),
            _sgd_turn("SYSTEM", "Tep Thai is a nice one in Oakland.",
                      slots=[("restaurant_name", "Tep Thai")]),
            _sgd_turn(
                "USER",
                "Sounds good, what is their phone number?",
                state={
                    "active_intent": "FindRestaurants",
                    "slot_values": {"city": ["Oakland"], "cuisine": ["thai"]},
                    "requested_slots": ["phone_number"],
                },
            ),
        ],
    }


class TestSgdAdapter:
    def test_spans_copied_verbatim(self):
        d = adapt("sgd", _sgd_fixture())
        t0 = d.turns[0]
        values = {"city": "Oakland", "cuisine": "thai"}
        assert {n for n, _, _ in t0.slot_spans} == set(values)
        for name, s, e in t0.slot_spans:
            assert t0.text[s:e] == values[name]

    def test_goal_reconstruction(self):
        d = adapt("sgd", _sgd_fixture())
        (sg,) = d.goal.sub_goals
        assert sg.domain == "Restaurants_1"
        assert sg.intent == "FindRestaurants"
        assert sg.constraints == {"city": "Oakland", "cuisine": "thai"}
        assert sg.requests == frozenset({"phone_number"})
        assert "Restaurants_1" in d.goal.text

    def test_state_on_user_turns(self):
        d = adapt("sgd", _sgd_fixture())
        assert set(states_of(d)) == {0, 2}
        assert d.turns[0].state == {
            "Restaurants_1.city": "Oakland",
            "Restaurants_1.cuisine": "thai",
        }

    def test_roles_and_renumbering(self):
        d = adapt("sgd", _sgd_fixture())
        assert [t.role for t in d.turns] == [Role.USER, Role.ASSISTANT, Role.USER]
        assert [t.index for t in d.turns] == [0, 1, 2]

    def test_out_of_bounds_span_dropped(self):
        raw = _sgd_fixture()
        raw["turns"][0]["frames"][0]["slots"].append(
            {"slot": "bogus", "start": 400, "exclusive_end": 410})
        d = adapt("sgd", raw)
        assert "bogus" not in {n for n, _, _ in d.turns[0].slot_spans}

    def test_overlapping_span_skipped(self):
        raw = _sgd_fixture()
        text = raw["turns"][0]["utterance"]
        s = text.find("Oakland")
        raw["turns"][0]["frames"][0]["slots"].append(
            {"slot": "shadow", "start": s + 2, "exclusive_end": s + 6})
        d = adapt("sgd", raw)
        names = [n for n, _, _ in d.turns[0].slot_spans]
        assert "shadow" not in names


def _tm2_fixture():
    u0 = "Find me a table at Olive Garden tonight."
    u2 = "Seven pm works."
    return {
        "conversation_id": "tm2-77",
        "utterances": [
            {
                "speaker": "USER",
                "text": u0,
                "segments": [{
                    "start_index": u0.find("Olive Garden"),
                    "end_index": u0.find("Olive Garden") + len("Olive Garden"),
                    "text": "Olive Garden",
                    "annotations": [{"name": "restaurant_reservation.name.restaurant"}],
                }],
            },
            {"speaker": "ASSISTANT", "text": "What time tonight?"},
            {
                "speaker": "USER",
                "text": u2,
                "segments": [{
                    "start_index": 0,
                    "end_index": len("Seven pm"),
                    "text": "Seven pm",
                    "annotations": [{"name": "restaurant_reservation.time.reservation"}],
                }],
            },
        ],
    }


class TestTm2Adapter:
    def test_segments_become_spans(self):
        d = adapt("tm2", _tm2_fixture())
        (span,) = d.turns[0].slot_spans
        name, s, e = span
        assert name == "name.restaurant"
        assert d.turns[0].text[s:e] == "Olive Garden"

    def test_goal_collects_user_segments(self):
        d = adapt("tm2", _tm2_fixture())
        (sg,) = d.goal.sub_goals
        assert sg.domain == "restaurant_reservation"
        assert sg.constraints == {
            "name.restaurant": "Olive Garden",
            "time.reservation": "Seven pm",
        }

    def test_mismatched_segment_text_dropped(self):
        raw = _tm2_fixture()
        raw["utterances"][0]["segments"][0]["text"] = "Olive Gardens"
        d = adapt("tm2", raw)
        assert d.turns[0].slot_spans == ()

    def test_unannotated_segment_gets_default_name(self):
        raw = _tm2_fixture()
        raw["utterances"][2]["segments"][0]["annotations"] = []
        d = adapt("tm2", raw)
        (span,) = d.turns[2].slot_spans
        assert span[0] == "value"


class TestAlignPlaceholders:
    def test_single_placeholder(self):
        original = "Sure, it's aphoenix939@email.com."
        report = align_placeholders(original, "Sure, it's <email>.")
        ((name, s, e),) = report.matched
        assert name == "email"
        assert original[s:e] == "aphoenix939@email.com"

    def test_multiple_placeholders(self):
        original = "My name is John Smith and zip 90210."
        report = align_placeholders(original, "My name is <name> and zip <zip>.")
        got = {name: original[s:e] for name, s, e in report.matched}
        assert got == {"name": "John Smith", "zip": "90210"}

    def test_no_placeholders_is_empty(self):
        assert align_placeholders("hello", "hello") == align_placeholders("x", "x")
        assert align_placeholders("hello", "hello").matched == ()

    def test_misaligned_text_reports_unmatched(self):
        report = align_placeholders("Completely different words.", "Sure, it's <email>.")
        assert report.matched == ()
        assert report.unmatched == (("email", "<email>"),)


def _abcd_fixture():
    return {
        "convo_id": 10083,
        "scenario": {
            "flow": "account_access",
            "subflow": "recover_username",
            "personal": {"customer_name": "Alessandro Phoenix",
                         "email": "aphoenix939@email.com"},
            "prompt": "You forgot your username and need it back.",
        },
        "original": [
            ["customer", "Hi, I forgot my username."],
            ["action", "Verify identity."],
            ["agent", "No problem."],
            ["agent", "Can I get your email?"],
            ["customer", "Sure, it's aphoenix939@email.com."],
        ],
        "delexed": [
            ["customer", "Hi, I forgot my username."],
            ["action", "Verify identity."],
            ["agent", "No problem."],
            ["agent", "Can I get your email?"],
            ["customer", "Sure, it's <email>."],
        ],
    }


class TestAbcdAdapter:
    def test_actions_dropped_and_agents_merged(self):
        d = adapt("abcd", _abcd_fixture())
        assert [t.role for t in d.turns] == [Role.USER, Role.ASSISTANT, Role.USER]
        assert d.turns[1].text == "No problem. Can I get your email?"

    def test_placeholder_span_covers_literal(self):
        d = adapt("abcd", _abcd_fixture())
        spans = {n: (s, e) for n, s, e in d.turns[2].slot_spans}
        s, e = spans["email"]
        assert d.turns[2].text[s:e] == "aphoenix939@email.com"

    def test_scenario_becomes_goal(self):
        d = adapt("abcd", _abcd_fixture())
        (sg,) = d.goal.sub_goals
        assert sg.domain == "account_access"
        assert sg.intent == "recover_username"
        assert sg.constraints == {
            "customer_name": "Alessandro Phoenix",
            "email": "aphoenix939@email.com",
        }
        assert d.goal.text == "You forgot your username and need it back."

    def test_merged_spans_are_shifted(self):
        raw = _abcd_fixture()
        raw["original"].extend([
            ["agent", "Thanks."],
            ["agent", "I see the account for chunkylover53."],
        ])
        raw["delexed"].extend([
            ["agent", "Thanks."],
            ["agent", "I see the account for <username>."],
        ])
        d = adapt("abcd", raw)
        last = d.turns[-1]
        assert last.text == "Thanks. I see the account for chunkylover53."
        spans = {n: (s, e) for n, s, e in last.slot_spans}
        s, e = spans["username"]
        assert last.text[s:e] == "chunkylover53"

    def test_failed_alignment_recovered_by_exact_match(self):
        # the placeholder fails to align, but the scenario value still sits in
        # the utterance, so the exact-match fallback recovers the span
        raw = _abcd_fixture()
        raw["delexed"][4] = ["customer", "Totally different <email> sentence."]
        d = adapt("abcd", raw)
        spans = {n: (s, e) for n, s, e in d.turns[2].slot_spans}
        s, e = spans["email"]
        assert d.turns[2].text[s:e] == "aphoenix939@email.com"
        assert len(d.turns) == 3

    def test_unrecoverable_value_left_spanless(self):
        raw = _abcd_fixture()
        raw["original"][4] = ["customer", "Sure, one moment please."]
        raw["delexed"][4] = ["customer", "Sure, one moment please."]
        d = adapt("abcd", raw)
        assert "email" not in {n for t in d.turns for n, _, _ in t.slot_spans}
        assert len(d.turns) == 3

    def test_scenario_value_located_in_user_turn(self):
        raw = _abcd_fixture()
        raw["original"][0] = ["customer", "Hi, this is Alessandro Phoenix, I forgot my username."]
        raw["delexed"][0] = ["customer", "Hi, this is Alessandro Phoenix, I forgot my username."]
        d = adapt("abcd", raw)
        spans = {n for n, _, _ in d.turns[0].slot_spans}
        assert "customer_name" in spans


def _woz_fixture():
    return {
        "dialogue_id": "PMUL0001",
        "goal": {
            "restaurant": {
                "info": {"food": "thai", "area": "centre"},
                "book": {"people": "2", "day": "friday"},
                "reqt": ["phone"],
            },
            "message": ["You are looking for a <span>thai</span> restaurant."],
        },
        "log": [
            {"text": "I need a thai restaurant in the centre.",
             "emotion": [{"emotion": 0}]},
            {"text": "Sure, any price range?",
             "metadata": {"restaurant": {"semi": {"food": "thai", "area": "centre"},
                                          "book": {}}}},
            {"text": "Thank you so much!", "emotion": [{"emotion": 6}]},
            {"text": "You are welcome.",
             "metadata": {"restaurant": {"semi": {"food": "thai", "area": "centre"},
                                          "book": {"day": "friday"}}}},
        ],
    }


class TestWozAdapter:
    def test_goal_flattening(self):
        d = adapt("emowoz", _woz_fixture())
        (sg,) = d.goal.sub_goals
        assert sg.domain == "restaurant"
        assert sg.intent == "find_and_book"
        assert sg.constraints == {
            "food": "thai", "area": "centre", "bookpeople": "2", "bookday": "friday",
        }
        assert sg.requests == frozenset({"phone"})

    def test_message_tags_stripped(self):
        d = adapt("emowoz", _woz_fixture())
        assert d.goal.text == "You are looking for a thai restaurant."

    def test_roles_alternate_by_parity(self):
        d = adapt("emowoz", _woz_fixture())
        assert [t.role for t in d.turns] == [
            Role.USER, Role.ASSISTANT, Role.USER, Role.ASSISTANT]

    def test_emotions_on_user_turns(self):
        d = adapt("emowoz", _woz_fixture())
        assert d.turns[0].emotion is Emotion.NEUTRAL
        assert d.turns[2].emotion is Emotion.SATISFIED
        assert d.turns[1].emotion is None

    def test_unlabeled_emotion_forms(self):
        raw = _woz_fixture()
        raw["log"][0]["emotion"] = -1
        raw["log"][2]["emotion"] = 6
        d = adapt("emowoz", raw)
        assert d.turns[0].emotion is None
        assert d.turns[2].emotion is Emotion.SATISFIED

    def test_state_keyed_domain_slot(self):
        d = adapt("emowoz", _woz_fixture())
        assert d.turns[1].state == {
            "restaurant-food": "thai", "restaurant-area": "centre"}
        assert d.turns[3].state["restaurant-day"] == "friday"

    def test_new_state_values_located_in_preceding_user_turn(self):
        d = adapt("emowoz", _woz_fixture())
        spans = {n: (s, e) for n, s, e in d.turns[0].slot_spans}
        s, e = spans["restaurant-food"]
        assert d.turns[0].text[s:e] == "thai"
        assert "restaurant-area" in spans

    def test_not_mentioned_values_skipped(self):
        raw = _woz_fixture()
        raw["log"][1]["metadata"]["restaurant"]["semi"]["name"] = "not mentioned"
        d = adapt("emowoz", raw)
        assert "restaurant-name" not in d.turns[1].state

    def test_spokenwoz_source_tag(self):
        d = adapt("spokenwoz", _woz_fixture())
        assert d.source == "spokenwoz"


def test_template_goal_text_shape():
    sg = SubGoal(domain="restaurant", intent="find_restaurant",
                 constraints={"food": "thai"}, requests=frozenset({"phone"}))
    text = template_goal_text((sg,))
    assert "find restaurant" in text
    assert "food = thai" in text
    assert "Find out: phone." in text
