"""Disfluency model: length curve, positioning, injection, and invertibility."""

from __future__ import annotations

import random
import string
import time

import pytest
from hypothesis import given, settings, strategies as st

from todvoice import disfluency
from todvoice.clients import StubChatClient
from todvoice.corpus import (
    COR_CONNECTORS, Role, Turn, clear_of, dumps_dialogue, fluent_text, loads_dialogue, locate_slot_spans, tagged_text,
    validate_dialogue,
)
from todvoice.disfluency import (
    DISFLUENCY_TYPES,
    DisfluencyConfig,
    FILLERS,
    apply_disfluency_stage,
    choose_position,
    disfluency_probability,
    inject,
    sample_and_type,
)
from todvoice.seeding import rng_for

from conftest import make_dialogue


class TestProbability:
    B = DisfluencyConfig().b

    def test_zero_length(self):
        assert disfluency_probability(0, self.B) == 0.0

    def test_length_one(self):
        assert disfluency_probability(1, self.B) == pytest.approx(0.0547, abs=1e-4)

    def test_length_ten(self):
        assert disfluency_probability(10, self.B) == pytest.approx(1 - 0.9453**10, abs=1e-12)
        assert disfluency_probability(10, self.B) == pytest.approx(0.4303, abs=5e-4)

    def test_near_one_base(self):
        assert disfluency_probability(5, b=0.9999) == pytest.approx(0.0005, abs=1e-4)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            disfluency_probability(-1, self.B)


class TestSampleAndType:
    def test_empty_utterance_never_disfluent(self):
        t = Turn(index=0, role=Role.USER, text="")
        rng = rng_for(0, "empty")
        assert all(sample_and_type(t, DisfluencyConfig(), rng) is None for _ in range(100))

    def test_assistant_turns_never_sampled(self):
        t = Turn(index=0, role=Role.ASSISTANT, text="word " * 50)
        rng = rng_for(0, "asst")
        assert all(sample_and_type(t, DisfluencyConfig(), rng) is None for _ in range(100))

    def test_length_curve_and_type_uniformity(self):
        text10 = " ".join(["word"] * 10)
        t = Turn(index=0, role=Role.USER, text=text10)
        rng = rng_for(7, "curve10")
        counts: dict[str, int] = {}
        hits = 0
        n = 100_000
        for _ in range(n):
            got = sample_and_type(t, DisfluencyConfig(), rng)
            if got is not None:
                hits += 1
                counts[got] = counts.get(got, 0) + 1
        assert abs(hits / n - (1 - 0.9453**10)) <= 0.01
        assert set(counts) == set(DISFLUENCY_TYPES)
        for c in counts.values():
            assert abs(c / hits - 1 / 6) <= 0.01

    def test_acceptance_curve_at_three_lengths(self):
        start = time.monotonic()
        for length in (5, 10, 20):
            t = Turn(index=0, role=Role.USER, text=" ".join(["w"] * length))
            rng = rng_for(13, "accept", length)
            hits = sum(
                1 for _ in range(10_000)
                if sample_and_type(t, DisfluencyConfig(), rng) is not None
            )
            assert abs(hits / 10_000 - (1 - 0.9453**length)) <= 0.02
        assert time.monotonic() - start < 5.0


class TestChoosePosition:
    def test_cor_targets_the_only_slot(self):
        text = "book for two"
        t = Turn(index=0, role=Role.USER, text=text, slot_spans=(("people", 9, 12),))
        rng = rng_for(0, "cor")
        for _ in range(50):
            dtype, pos = choose_position(t, "COR", rng)
            assert dtype == "COR"
            assert pos == 2

    def test_cor_on_slotless_turn_resampled(self):
        t = Turn(index=0, role=Role.USER, text="just some words here")
        rng = rng_for(0, "resample")
        for _ in range(200):
            dtype, pos = choose_position(t, "COR", rng)
            assert dtype != "COR"
            assert dtype in DISFLUENCY_TYPES

    def test_slot_local_window(self, monkeypatch):
        text = "I would like a table in the centre of town today"
        start = text.index("centre")
        t = Turn(index=0, role=Role.USER, text=text,
                 slot_spans=(("area", start, start + 6),))
        slot_word = 7
        monkeypatch.setattr(disfluency, "P_SLOT_LOCAL", 1.0)
        rng = rng_for(3, "local")
        for _ in range(1_000):
            _, pos = choose_position(t, "FP", rng)
            assert abs(pos - slot_word) <= disfluency.SLOT_WINDOW_WORDS

    def test_slotless_fp_positions_roughly_uniform(self):
        words = 8
        t = Turn(index=0, role=Role.USER, text=" ".join(f"w{i}" for i in range(words)))
        rng = rng_for(5, "uniform")
        counts = [0] * words
        n = 10_000
        for _ in range(n):
            _, pos = choose_position(t, "FP", rng)
            counts[pos] += 1
        for c in counts:
            assert abs(c / n - 1 / words) <= 0.02


def _stub():
    return StubChatClient()


def _cut_back(out: Turn) -> tuple[str, tuple[tuple[str, int, int], ...]]:
    """out's fluent text, and its slot spans moved into it; every span must lie
    clear of every disfluency range."""
    assert all(clear_of(out.slot_spans, m.start, m.end) for m in out.disfluency)

    def back(i: int) -> int:
        return i - sum(m.end - m.start for m in out.disfluency if m.end <= i)

    return fluent_text(out), tuple((name, back(s), back(e)) for name, s, e in out.slot_spans)


class TestInject:
    def test_fp_before_first_word_matches_template(self):
        t = Turn(index=0, role=Role.USER, text="we should go there.")
        rng = random.Random(1)
        out = inject(t, "FP", 0, _stub(), rng)
        filler = out.disfluency[0].inserted_span.rstrip(",")
        assert filler in FILLERS["FP"]
        assert tagged_text(out).startswith("[FP] ")
        assert out.text == f"{filler}, we should go there."
        assert fluent_text(out) == "we should go there."

    def test_rep_duplicates_up_to_two_words(self):
        text = "I'm a Gold member, not Bronze."
        t = Turn(index=0, role=Role.USER, text=text)
        out = inject(t, "REP", 3, _stub(), random.Random(0))
        meta = out.disfluency[0]
        assert meta.type == "REP"
        assert meta.inserted_span == "Gold member"
        assert tagged_text(out) == "I'm a Gold member [REP] Gold member, not Bronze."
        assert fluent_text(out) == text

    def test_rep_lands_after_its_copy_where_choose_position_checked(self):
        """REP repeats words less their trailing punctuation, so it may not
        go at a word whose copy ends inside a slot value ("Main St,")."""
        text = "I live at 12 Main St. now"
        t = Turn(index=0, role=Role.USER, text=text, slot_spans=(("street", 13, 21),))
        rng = rng_for(0, "rep-landing")
        for _ in range(2_000):
            _, pos = choose_position(t, "REP", rng)
            assert _cut_back(inject(t, "REP", pos, _stub(), rng)) == (text, t.slot_spans), pos

    def test_cor_contains_gold_value_and_wrong_differs(self):
        text = "I need it on Saturday for sure."
        start = text.index("Saturday")
        t = Turn(index=0, role=Role.USER, text=text,
                 slot_spans=(("day", start, start + 8),))
        out = inject(t, "COR", 4, _stub(), random.Random(2))
        meta = next(m for m in out.disfluency if m.type == "COR")
        assert meta.original_value == "Saturday"
        assert meta.inserted_span != "Saturday"
        assert "Saturday" in out.text
        assert fluent_text(out) == text

    def test_rst_fragment_two_to_five_words(self):
        t = Turn(index=0, role=Role.USER, text="Can you find me a hotel in the north part please?")
        out = inject(t, "RST", 0, _stub(), random.Random(3))
        meta = next((m for m in out.disfluency if m.type == "RST"), None)
        if meta is None:
            pytest.skip("stub restart rejected for this input")
        words = meta.inserted_span.rstrip(".-—").split()
        assert 2 <= len(words) <= 5
        assert "[RST]" in tagged_text(out)

    def test_client_failure_leaves_turn_fluent(self):
        class Failing(StubChatClient):
            def chat(self, messages):
                from todvoice.clients import ClientError
                raise ClientError("down")

        text = "I need it on Saturday for sure."
        start = text.index("Saturday")
        t = Turn(index=0, role=Role.USER, text=text,
                 slot_spans=(("day", start, start + 8),))
        out = inject(t, "COR", 4, Failing(), random.Random(2))
        assert out.text == text
        assert out.disfluency == ()


@pytest.mark.parametrize("dtype", ["FP", "DM", "EDIT", "REP"])
def test_round_trip_property_per_type(dtype):
    """fluent_text inverts rule-based injection at every position."""
    rng = random.Random(17)
    words = ["alpha", "bravo", "charlie's", "delta", "echo5", "foxtrot"]
    for n in range(1, len(words) + 1):
        text = " ".join(words[:n]) + "."
        for pos in range(n):
            t = Turn(index=0, role=Role.USER, text=text)
            out = inject(t, dtype, pos, _stub(), rng)
            assert out.disfluency, f"{dtype} at {pos} did not inject"
            assert fluent_text(out) == text, f"{dtype} at {pos}"


def test_round_trip_bulk_random_utterances():
    rng = random.Random(99)
    alphabet = string.ascii_lowercase
    for i in range(10_000):
        n_words = rng.randint(1, 12)
        text = " ".join(
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
            for _ in range(n_words)
        )
        if rng.random() < 0.5:
            text += "."
        dtype = rng.choice(["FP", "DM", "EDIT", "REP"])
        pos = rng.randrange(n_words)
        t = Turn(index=0, role=Role.USER, text=text)
        out = inject(t, dtype, pos, _stub(), rng)
        assert fluent_text(out) == text, f"case {i}: {dtype}@{pos} on {text!r}"


class _Connector(StubChatClient):
    """The stub, with its self-correction joined by another connector."""

    def __init__(self, connector: str) -> None:
        self.connector = connector

    def _self_correction(self, prompt: str) -> str:
        return super()._self_correction(prompt).replace(COR_CONNECTORS[0], self.connector, 1)


@pytest.mark.parametrize("connector", COR_CONNECTORS)
def test_cor_fluent_text_cuts_every_connector(connector):
    text = "I need it on Saturday for sure."
    start = text.index("Saturday")
    t = Turn(index=0, role=Role.USER, text=text, slot_spans=(("day", start, start + 8),))
    out = inject(t, "COR", 4, _Connector(connector), random.Random(0))
    assert out.text == f"I need it on Friday{connector}Saturday for sure."
    assert tagged_text(out) == f"I need it on Friday— [COR] {connector[2:]}Saturday for sure."
    assert fluent_text(out) == text


def test_insertions_stack_and_cut_back():
    text = "we should go there today."
    rng = random.Random(5)
    out = inject(inject(Turn(index=0, role=Role.USER, text=text), "REP", 3, _stub(), rng), "FP", 0, _stub(), rng)
    assert [m.type for m in out.disfluency] == ["FP", "REP"]
    assert fluent_text(out) == text
    d = make_dialogue(texts=[(Role.USER, text)]).with_turns([out])
    assert loads_dialogue(dumps_dialogue(d)) == d


_WORDS = st.sampled_from(["alpha", "bravo", "charlie's", "delta", "echo5", "I", "mean", "no", "well"])
_VALUES = ("Saturday", "cambridge", "HB676BP71", "two", "Main St.")


@settings(max_examples=300)
@given(
    words=st.lists(_WORDS, min_size=1, max_size=10),
    slots=st.lists(st.tuples(st.integers(0, 10), st.sampled_from(_VALUES)), max_size=2, unique_by=lambda s: s[1]),
    stop=st.booleans(),
    dtype=st.sampled_from(DISFLUENCY_TYPES),
    connector=st.sampled_from(COR_CONNECTORS),
    seed=st.integers(0, 2**16),
)
def test_every_type_cuts_back_to_its_text_and_loads_as_written(words, slots, stop, dtype, connector, seed):
    """Any one event's range lies in the text and clear of the slot spans,
    and cutting it out gives the text before injection with its spans; the
    turn is written and read back unchanged."""
    words = list(words)
    for at, value in slots:
        words.insert(at, value)
    text = " ".join(words) + ("." if stop else "")
    spans = locate_slot_spans(text, [(f"slot{i}", value) for i, (_, value) in enumerate(slots)]).matched
    t = Turn(index=0, role=Role.USER, text=text, slot_spans=spans)
    rng = random.Random(seed)
    chosen = choose_position(t, dtype, rng)
    out = t if chosen is None else inject(t, *chosen, _Connector(connector), rng)
    bounds = [0, *(p for m in out.disfluency for p in (m.start, m.end)), len(out.text)]
    assert bounds == sorted(bounds)
    assert _cut_back(out) == (text, spans)
    assert [out.text[s:e] for _, s, e in out.slot_spans] == [text[s:e] for _, s, e in spans]
    d = make_dialogue(texts=[(Role.USER, text)]).with_turns([out])
    once = dumps_dialogue(d)
    assert loads_dialogue(once) == d
    assert dumps_dialogue(loads_dialogue(once)) == once


class TestStage:
    def test_stage_injects_at_most_one_event_per_turn(self):
        d = make_dialogue(texts=[
            (Role.USER, " ".join(["alpha"] * 30)),
            (Role.ASSISTANT, "ok"),
            (Role.USER, " ".join(["beta"] * 30)),
            (Role.ASSISTANT, "done"),
        ])
        out = apply_disfluency_stage(d.turns, DisfluencyConfig(), _stub(), rng_for(1, "stage", "df"))
        for t in out:
            assert len(t.disfluency) <= 1
            if t.role is Role.ASSISTANT:
                assert t.disfluency == ()

    def test_stage_deterministic(self):
        d = make_dialogue(texts=[
            (Role.USER, " ".join(["alpha"] * 20)),
            (Role.ASSISTANT, "ok"),
        ])
        a = apply_disfluency_stage(d.turns, DisfluencyConfig(), _stub(), rng_for(4, "det", "df"))
        b = apply_disfluency_stage(d.turns, DisfluencyConfig(), _stub(), rng_for(4, "det", "df"))
        assert a == b

    def test_every_turn_cuts_back_to_its_input(self):
        """Over seeded dialogues, each output turn's fluent text and spans are
        its input's: an event never moves a label into what it inserted."""
        rng = random.Random(8)
        words = ["I", "want", "the", "hotel", "in", "please", "for", "that", "is", "fine"]
        values = ["Main St.", "cambridge", "two", "Saturday"]
        for k in range(150):
            texts = []
            for i in range(6):
                ws = [rng.choice(words) for _ in range(rng.randint(2, 14))]
                for value in rng.sample(values, rng.randint(0, 2)):
                    ws.insert(rng.randint(0, min(3, len(ws))), value)
                texts.append((Role.USER if i % 2 == 0 else Role.ASSISTANT, " ".join(ws) + "."))
            d = make_dialogue(texts=texts)
            d = d.with_turns(t.with_(slot_spans=locate_slot_spans(t.text, [(v, v) for v in values]).matched)
                             for t in d.turns)
            out = apply_disfluency_stage(d.turns, DisfluencyConfig(), _stub(), rng_for(k, "cut-back", "df"))
            for before, after in zip(d.turns, out):
                assert _cut_back(after) == (before.text, before.slot_spans)
                assert [after.text[s:e] for _, s, e in after.slot_spans] == [v for v, _, _ in before.slot_spans]

    @pytest.mark.parametrize("dtype", ["REP", "RST"])
    def test_a_turn_with_no_landing_outside_its_value_stays_fluent(self, monkeypatch, dtype):
        """Every word of "12 Main St." would put a repeat's landing point inside
        the street value, and RST draws its position as REP does, so the turn
        comes back unchanged and valid rather than with an event in the value."""
        d = make_dialogue(texts=[(Role.USER, "12 Main St."), (Role.ASSISTANT, "Noted.")],
                          spans={0: (("street", 0, 11),)})
        monkeypatch.setattr(disfluency, "sample_and_type", lambda t, cfg, rng: dtype)
        for seed in range(50):
            rng = rng_for(seed, "no-landing", "df")
            assert choose_position(d.turns[0], dtype, rng) is None
            out = apply_disfluency_stage(d.turns, DisfluencyConfig(), _stub(), rng)
            assert out == d.turns
            assert validate_dialogue(d.with_turns(out)) == []

    def test_a_dialogue_with_no_selected_turn_comes_back_as_itself(self, monkeypatch):
        d = make_dialogue()
        monkeypatch.setattr(disfluency, "sample_and_type", lambda t, cfg, rng: None)
        out = apply_disfluency_stage(d.turns, DisfluencyConfig(), _stub(), rng_for(0, "none", "df"))
        assert d.with_turns(out) is d

    def test_an_empty_turn_has_no_landing_point(self):
        t = Turn(role=Role.USER, text="")
        for dtype in DISFLUENCY_TYPES:
            assert choose_position(t, dtype, rng_for(0, "empty", dtype)) is None

    def test_slot_spans_still_valid_after_injection(self):
        rng = random.Random(21)
        for _ in range(500):
            words = [f"w{i}" for i in range(10)]
            text = " ".join(words)
            start = text.index("w4")
            t = Turn(index=0, role=Role.USER, text=text,
                     slot_spans=(("slot", start, start + 2),))
            dtype = rng.choice(["FP", "DM", "EDIT", "REP"])
            pos = rng.randrange(10)
            out = inject(t, dtype, pos, _stub(), rng)
            for name, s, e in out.slot_spans:
                assert out.text[s:e] == "w4"
