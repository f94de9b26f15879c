"""Source-format adapters: span recovery, goal reconstruction, merging."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from todvoice.corpus import Emotion, Role, dialogue_to_dict, dumps_dialogue, validate_dialogue
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


def _sgd_out_of_bounds():
    raw = _sgd_fixture()
    raw["turns"][0]["frames"][0]["slots"].append(
        {"slot": "bogus", "start": 400, "exclusive_end": 410})
    return raw


def _sgd_overlapping():
    raw = _sgd_fixture()
    s = raw["turns"][0]["utterance"].find("Oakland")
    raw["turns"][0]["frames"][0]["slots"].append(
        {"slot": "shadow", "start": s + 2, "exclusive_end": s + 6})
    return raw


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
        d = adapt("sgd", _sgd_out_of_bounds())
        assert "bogus" not in {n for n, _, _ in d.turns[0].slot_spans}

    def test_overlapping_span_skipped(self):
        d = adapt("sgd", _sgd_overlapping())
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


def _tm2_mismatched():
    raw = _tm2_fixture()
    raw["utterances"][0]["segments"][0]["text"] = "Olive Gardens"
    return raw


def _tm2_unannotated():
    raw = _tm2_fixture()
    raw["utterances"][2]["segments"][0]["annotations"] = []
    return raw


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
        d = adapt("tm2", _tm2_mismatched())
        assert d.turns[0].slot_spans == ()

    def test_unannotated_segment_gets_default_name(self):
        d = adapt("tm2", _tm2_unannotated())
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


def _abcd_two_agent_rows():
    raw = _abcd_fixture()
    raw["original"].extend([
        ["agent", "Thanks."],
        ["agent", "I see the account for chunkylover53."],
    ])
    raw["delexed"].extend([
        ["agent", "Thanks."],
        ["agent", "I see the account for <username>."],
    ])
    return raw


def _abcd_misaligned():
    raw = _abcd_fixture()
    raw["delexed"][4] = ["customer", "Totally different <email> sentence."]
    return raw


def _abcd_value_absent():
    raw = _abcd_fixture()
    raw["original"][4] = ["customer", "Sure, one moment please."]
    raw["delexed"][4] = ["customer", "Sure, one moment please."]
    return raw


def _abcd_name_in_user_turn():
    raw = _abcd_fixture()
    raw["original"][0] = ["customer", "Hi, this is Alessandro Phoenix, I forgot my username."]
    raw["delexed"][0] = ["customer", "Hi, this is Alessandro Phoenix, I forgot my username."]
    return raw


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
        d = adapt("abcd", _abcd_two_agent_rows())
        last = d.turns[-1]
        assert last.text == "Thanks. I see the account for chunkylover53."
        spans = {n: (s, e) for n, s, e in last.slot_spans}
        s, e = spans["username"]
        assert last.text[s:e] == "chunkylover53"

    def test_failed_alignment_recovered_by_exact_match(self):
        # the placeholder fails to align, but the scenario value still sits in
        # the utterance, so the exact-match fallback recovers the span
        d = adapt("abcd", _abcd_misaligned())
        spans = {n: (s, e) for n, s, e in d.turns[2].slot_spans}
        s, e = spans["email"]
        assert d.turns[2].text[s:e] == "aphoenix939@email.com"
        assert len(d.turns) == 3

    def test_unrecoverable_value_left_spanless(self):
        d = adapt("abcd", _abcd_value_absent())
        assert "email" not in {n for t in d.turns for n, _, _ in t.slot_spans}
        assert len(d.turns) == 3

    def test_scenario_value_located_in_user_turn(self):
        d = adapt("abcd", _abcd_name_in_user_turn())
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


def _woz_bare_emotions():
    raw = _woz_fixture()
    raw["log"][0]["emotion"] = -1
    raw["log"][2]["emotion"] = 6
    return raw


def _woz_not_mentioned():
    raw = _woz_fixture()
    raw["log"][1]["metadata"]["restaurant"]["semi"]["name"] = "not mentioned"
    return raw


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
        d = adapt("emowoz", _woz_bare_emotions())
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
        d = adapt("emowoz", _woz_not_mentioned())
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


# Every fixture record and variant above, as (source, record builder).
RECORDS = [
    ("sgd", _sgd_fixture), ("sgd", _sgd_out_of_bounds), ("sgd", _sgd_overlapping),
    ("tm2", _tm2_fixture), ("tm2", _tm2_mismatched), ("tm2", _tm2_unannotated),
    ("abcd", _abcd_fixture), ("abcd", _abcd_two_agent_rows), ("abcd", _abcd_misaligned),
    ("abcd", _abcd_value_absent), ("abcd", _abcd_name_in_user_turn),
    ("emowoz", _woz_fixture), ("emowoz", _woz_bare_emotions), ("emowoz", _woz_not_mentioned),
    ("spokenwoz", _woz_fixture),
]
# sha256 over the serialized adapter output of RECORDS, one line each. A change
# to an adapter must leave it as it is, or update it and say why.
INGEST_DIGEST = "c1c56985eb0cead94da68bbe5fedaea466036aae04782fc8bacaf2d094d502b7"


def test_adapter_output_is_pinned():
    blob = "".join(dumps_dialogue(adapt(source, build())) + "\n" for source, build in RECORDS)
    assert hashlib.sha256(blob.encode()).hexdigest() == INGEST_DIGEST


# --- properties over generated records ----------------------------------------
# Each strategy draws a record with any speaker sequence (runs of one speaker
# included) and spans in bounds, out of bounds and overlapping, together with
# slot name -> source value for every span the adapter may keep.

_TEXT = st.text(alphabet="ab ", max_size=8)
_VALUE = st.text(alphabet="ab", min_size=1, max_size=3)
_BOUNDS = st.lists(st.tuples(st.integers(-2, 10), st.integers(-2, 10)), max_size=3)


def _in_bounds(text, start, end):
    return 0 <= start < end <= len(text)


@st.composite
def _sgd_records(draw):
    turns, expected = [], {}
    for i in range(draw(st.integers(0, 6))):
        text = draw(_TEXT)
        slots = []
        for k, (start, end) in enumerate(draw(_BOUNDS)):
            slots.append({"slot": f"s{i}_{k}", "start": start, "exclusive_end": end})
            if _in_bounds(text, start, end):
                expected[f"s{i}_{k}"] = text[start:end]
        state = {"slot_values": {f"s{i}": [draw(_VALUE)]}} if draw(st.booleans()) else None
        turns.append({"speaker": draw(st.sampled_from(["USER", "SYSTEM"])), "utterance": text,
                      "frames": [{"service": "svc", "slots": slots, "state": state}]})
    return {"dialogue_id": "p", "turns": turns}, expected


@st.composite
def _tm2_records(draw):
    utterances, expected = [], {}
    for i in range(draw(st.integers(0, 6))):
        text = draw(_TEXT)
        segments = []
        for k, (start, end) in enumerate(draw(_BOUNDS)):
            piece = text[start:end] if _in_bounds(text, start, end) else "zz"
            claimed = piece if draw(st.booleans()) else "zz"
            segments.append({"start_index": start, "end_index": end, "text": claimed,
                             "annotations": [{"name": f"dom.s{i}_{k}"}]})
            if claimed == piece != "zz":
                expected[f"s{i}_{k}"] = piece
        utterances.append({"speaker": draw(st.sampled_from(["USER", "ASSISTANT"])), "text": text,
                           "segments": segments})
    return {"conversation_id": "p", "utterances": utterances}, expected


@st.composite
def _abcd_records(draw):
    values = {f"v{k}": v for k, v in enumerate(draw(st.lists(_VALUE, max_size=3)))}
    original, delexed, expected = [], [], dict(values)
    for i in range(draw(st.integers(0, 6))):
        speaker = draw(st.sampled_from(["customer", "agent", "action"]))
        text = draw(_TEXT)
        name = "p" + "_" * i
        start, end = draw(st.integers(-2, 10)), draw(st.integers(-2, 10))
        mode = draw(st.sampled_from(["plain", "placeholder", "misaligned"]))
        if mode == "placeholder" and _in_bounds(text, start, end):
            delexed_text = f"{text[:start]}<{name}>{text[end:]}"
            expected[name] = text[start:end]
        else:
            delexed_text = f"zz <{name}>" if mode == "misaligned" else text
        original.append([speaker, text])
        delexed.append([speaker, delexed_text])
    scenario = {"flow": "f", "personal": values}
    return {"convo_id": "p", "scenario": scenario, "original": original, "delexed": delexed}, expected


@st.composite
def _woz_records(draw):
    log, expected = [], {}
    for i in range(draw(st.integers(0, 6))):
        entry = {"text": draw(_TEXT)}
        if i % 2:
            semi = {f"s{i}_{k}": v for k, v in enumerate(draw(st.lists(_VALUE, max_size=3)))}
            entry["metadata"] = {"d": {"semi": semi}}
            expected.update({f"d-{k}": v for k, v in semi.items()})
        log.append(entry)
    return {"dialogue_id": "p", "log": log}, expected


@pytest.mark.parametrize("source,records", [
    ("sgd", _sgd_records()), ("tm2", _tm2_records()), ("abcd", _abcd_records()), ("emowoz", _woz_records()),
])
@settings(max_examples=150)
@given(data=st.data())
def test_adapted_record_validates_and_its_spans_reslice(source, records, data):
    raw, expected = data.draw(records)
    d = adapt(source, raw)
    if d.turns:
        assert validate_dialogue(d) == []
    for t in d.turns:
        for name, s, e in t.slot_spans:
            assert t.text[s:e] == expected[name]
