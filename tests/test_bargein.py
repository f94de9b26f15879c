"""Barge-in sampling statistics, block generation, and splicing."""

from __future__ import annotations

import json
import logging

import pytest

from todvoice.bargein import (
    BargeInConfig,
    Candidate,
    apply_bargein_stage,
    generate_insertion,
    judge_validity,
    sample_candidates,
)
from todvoice.clients import ChatClient, StubChatClient
from todvoice.crossturn import CrossTurnConfig, reconstruct_value
from todvoice.corpus import (
    BargeInMeta,
    BargeInStyle,
    BargeInType,
    Role,
    Turn,
    corrections,
    dumps_dialogue,
    loads_dialogue,
    splice_turns,
    validate_dialogue,
)
from todvoice.prompts import context_string
from todvoice.seeding import rng_for

from conftest import dictate, make_dialogue, states_of, with_states


def _chat():
    return StubChatClient()


def _context(d, cand):
    return context_string(d.turns[: cand.turn_idx])


def _six_turn_dialogue():
    return make_dialogue(texts=[
        (Role.USER, "I need a flight to Paris on Friday."),
        (Role.ASSISTANT, "Sure, let me look for flights to Paris on Friday for you."),
        (Role.USER, "Economy class please."),
        (Role.ASSISTANT, "I found three options with your PNR attached."),
        (Role.USER, "Book the cheapest."),
        (Role.ASSISTANT, "Done, your booking is confirmed."),
    ])


class TestSampling:
    def test_rate_zero_selects_nothing(self):
        d = _six_turn_dialogue()
        assert sample_candidates(d, BargeInConfig(sample_rate=0.0), rng_for(0, "a")) == []

    def test_rate_one_selects_every_user_turn(self):
        d = _six_turn_dialogue()
        got = sample_candidates(d, BargeInConfig(sample_rate=1.0), rng_for(0, "b"))
        assert [c.turn_idx for c in got] == [0, 2, 4]

    def test_a_user_turn_that_interrupts_is_no_candidate_and_draws_nothing(self):
        d = apply_bargein_stage(with_states(_six_turn_dialogue(), {0: {"destination": "Paris", "day": "Friday"}}),
                                BargeInConfig(sample_rate=1.0), _chat(), _chat(), rng_for(3, "dlg-0001", "bi"))
        interrupting = [t.index for t in d.turns if t.role is Role.USER and t.bargein is not None]
        assert interrupting
        got = sample_candidates(d, BargeInConfig(sample_rate=1.0), rng_for(0, "b"))
        assert [c.turn_idx for c in got] == [t.index for t in d.turns if t.role is Role.USER and t.bargein is None]
        # the turn is skipped before its Bernoulli draw, so it uses no randomness
        rng = rng_for(0, "c")
        only = d.with_turns(d.turns[i] for i in range(len(d.turns)) if i in interrupting)
        assert sample_candidates(only, BargeInConfig(sample_rate=0.5), rng) == []
        assert rng.getstate() == rng_for(0, "c").getstate()

    def test_rate_and_cell_uniformity(self):
        # 100,000 user turns at 0.25; 3x3 cells each ~1/9 of selections
        d = make_dialogue(texts=[(Role.USER, "hello there"), (Role.ASSISTANT, "hi")])
        cfg = BargeInConfig(sample_rate=0.25)
        rng = rng_for(42, "uniform")
        cells: dict[tuple[str, str], int] = {}
        picked = 0
        n = 100_000
        for _ in range(n):
            for cand in sample_candidates(d, cfg, rng):
                picked += 1
                key = (cand.type.value, cand.style.value)
                cells[key] = cells.get(key, 0) + 1
        assert abs(picked / n - 0.25) <= 0.01
        assert len(cells) == 9
        for count in cells.values():
            assert abs(count / picked - 1 / 9) <= 0.01


class TestJudge:
    def test_stub_accepts_substantive_context(self):
        d = _six_turn_dialogue()
        cand = Candidate(2, BargeInType.CLARIFICATION, BargeInStyle.INTERPRETED)
        assert judge_validity(d, cand, _context(d, cand), _chat()) in (True, False)

    def test_efficiency_after_confirmation_is_suitable(self):
        d = _six_turn_dialogue()
        cand = Candidate(4, BargeInType.EFFICIENCY, BargeInStyle.IMPLICIT)
        assert judge_validity(d, cand, _context(d, cand), _chat()) is True


class TestGeneration:
    def test_block_shape(self):
        d = _six_turn_dialogue()
        cand = Candidate(2, BargeInType.EFFICIENCY, BargeInStyle.IMPLICIT)
        block = generate_insertion(d, cand, _context(d, cand), _chat())
        assert len(block) == 3
        roles = [t.role for t in block]
        assert roles == [Role.ASSISTANT, Role.USER, Role.ASSISTANT]
        assert block[0].text.endswith("<bargein>")

    def test_error_recovery_records_slot_maps(self):
        d = with_states(_six_turn_dialogue(), {0: {"destination": "Paris"}})
        cand = Candidate(0, BargeInType.ERROR_RECOVERY, BargeInStyle.RAW)
        block = generate_insertion(d, cand, _context(d, cand), _chat())
        meta = block[0].bargein
        assert meta.type is BargeInType.ERROR_RECOVERY
        assert meta.corrected_slots == {"destination": "Paris"}
        assert meta.erroneous_slots
        assert set(meta.erroneous_slots) == set(meta.corrected_slots)
        wrong = meta.erroneous_slots["destination"]
        assert wrong != "Paris"

    def test_raw_style_uses_blunt_interruption(self):
        d = with_states(_six_turn_dialogue(), {0: {"destination": "Paris"}})
        cand = Candidate(0, BargeInType.ERROR_RECOVERY, BargeInStyle.RAW)
        block = generate_insertion(d, cand, _context(d, cand), _chat())
        user_text = block[1].text
        assert user_text == "No, that's wrong."

    def test_efficiency_implicit_uses_backchannel(self):
        d = _six_turn_dialogue()
        cand = Candidate(2, BargeInType.EFFICIENCY, BargeInStyle.IMPLICIT)
        block = generate_insertion(d, cand, _context(d, cand), _chat())
        assert block[1].text == "Uh-huh."

    def test_clarification_interpreted_asks_about_term(self):
        d = _six_turn_dialogue()
        cand = Candidate(2, BargeInType.CLARIFICATION, BargeInStyle.INTERPRETED)
        block = generate_insertion(d, cand, _context(d, cand), _chat())
        assert "?" in block[1].text


class _Fixed(ChatClient):
    """A chat service that gives every prompt the same reply; counts the calls."""

    def __init__(self, reply):
        self.reply, self.calls = reply, 0

    def chat(self, messages):
        self.calls += 1
        return self.reply


_TURNS = [
    {"role": "assistant", "text": "Your destination is Lon<bargein>"},
    {"role": "user", "text": "No, Paris."},
    {"role": "assistant", "text": "Sorry, Paris it is."},
]
_PARIS = {"destination": "Paris"}
_SLOTS = {"erroneous_slots": {"destination": "London"}, "corrected_slots": _PARIS}


def _block(*turns, **slots):
    return json.dumps({"turns": list(turns), **slots})


# id -> (a reply, words of the reason it is rejected for)
_BAD_REPLIES = {
    "not-json": ("{", "unparseable block"),
    "not-an-object": ("[1, 2]", "reply must be an object"),
    "line-format": ("[Assistant]: Your destination is Lon<bargein>\n[User]: No, Paris.\n[Assistant]: Sorry.",
                    "unparseable block"),
    "turns-string": (json.dumps({"turns": "abc"}), "reply.turns must be"),
    "turn-not-object": (_block(_TURNS[0], "hi", _TURNS[2]), "reply.turns[1] must be"),
    "text-5": (_block({"role": "assistant", "text": 5}, *_TURNS[1:]), "reply.turns[0].text must be"),
    "role-missing": (_block({"text": "Lon<bargein>"}, *_TURNS[1:]), "reply.turns[0].role must be"),
    "erroneous-array": (_block(*_TURNS, erroneous_slots=["ab"], corrected_slots=_PARIS),
                        "reply.erroneous_slots must be"),
    "slot-value-5": (_block(*_TURNS, erroneous_slots={"destination": 5}, corrected_slots=_PARIS),
                     "reply.erroneous_slots must be"),
    "mismatched-keys": (_block(*_TURNS, erroneous_slots={"day": "Monday"}, corrected_slots=_PARIS),
                        "slot keys must match"),
    # one entry per rule of the block contract
    "two-turns": (_block(*_TURNS[:2], **_SLOTS), "expected 3 turns, got 2"),
    "roles": (_block(_TURNS[0], _TURNS[2], _TURNS[1], **_SLOTS), "bad role sequence"),
    "untruncated": (_block({"role": "assistant", "text": "Your destination is London."}, *_TURNS[1:], **_SLOTS),
                    "does not end with the truncation token"),
    "token-after-truncation": (_block(*_TURNS[:2], {"role": "assistant", "text": "Paris<bargein>"}, **_SLOTS),
                               "truncation token outside the truncated turn"),
    "no-slot-maps": (_block(*_TURNS), "missing slot corrections"),
    "correction-not-state": (_block(*_TURNS, erroneous_slots=_PARIS, corrected_slots={"destination": "Rome"}),
                             "'destination' does not match dialogue state"),
}


class TestBadReply:
    """A malformed generator reply is asked again once, then rejects the
    candidate, never the dialogue."""

    def _dialogue(self):
        return with_states(_six_turn_dialogue(), {0: _PARIS})

    def test_good_reply_accepted(self):
        cand = Candidate(0, BargeInType.ERROR_RECOVERY, BargeInStyle.INTERPRETED)
        block = generate_insertion(self._dialogue(), cand, "", _Fixed(_block(*_TURNS, **_SLOTS)))
        assert [t.text for t in block] == [t["text"] for t in _TURNS]
        assert block[0].bargein.erroneous_slots == {"destination": "London"}

    @pytest.mark.parametrize("reply, reason", _BAD_REPLIES.values(), ids=_BAD_REPLIES)
    def test_block_rejected(self, reply, reason, caplog):
        cand = Candidate(0, BargeInType.ERROR_RECOVERY, BargeInStyle.INTERPRETED)
        gen = _Fixed(reply)
        with caplog.at_level(logging.WARNING, logger="todvoice"):
            assert generate_insertion(self._dialogue(), cand, "", gen) is None
        assert gen.calls == 2
        (warning,) = [r.getMessage() for r in caplog.records]
        assert warning.startswith("barge-in generator on dlg-")
        assert reason in warning

    @pytest.mark.parametrize("reply, _", _BAD_REPLIES.values(), ids=_BAD_REPLIES)
    def test_stage_output_reloads(self, reply, _):
        d = self._dialogue()
        out = apply_bargein_stage(d, BargeInConfig(sample_rate=1.0), _Fixed("yes"), _Fixed(reply),
                                  rng_for(3, d.dialogue_id, "bi"))
        assert validate_dialogue(out) == []
        assert loads_dialogue(dumps_dialogue(out)) == out


class TestApplyInsertion:
    """A barge-in block is spliced in right after its user turn."""

    def _block(self):
        meta = BargeInMeta(type=BargeInType.EFFICIENCY, style=BargeInStyle.IMPLICIT)
        return [
            Turn(index=0, role=Role.ASSISTANT, text="Let me check the <bargein>", bargein=meta),
            Turn(index=0, role=Role.USER, text="Uh-huh.", bargein=meta),
            Turn(index=0, role=Role.ASSISTANT, text="Right away."),
        ]

    def test_six_turns_become_nine_with_originals_in_order(self):
        d = _six_turn_dialogue()
        out = splice_turns(d, [(3, 3, self._block())])
        assert len(out.turns) == 9
        original = [t.text for t in d.turns]
        augmented = [t.text for t in out.turns]
        it = iter(augmented)
        assert all(any(text == got for got in it) for text in original)

    def test_block_lands_before_original_assistant_response(self):
        d = _six_turn_dialogue()
        out = splice_turns(d, [(3, 3, self._block())])
        texts = [t.text for t in out.turns]
        assert texts[3].endswith("<bargein>")
        assert texts[4] == "Uh-huh."
        assert texts[5] == "Right away."
        assert texts[6] == d.turns[3].text

    def test_meta_attached_to_truncated_and_interruption_turns(self):
        d = _six_turn_dialogue()
        cand = Candidate(2, BargeInType.EFFICIENCY, BargeInStyle.IMPLICIT)
        out = splice_turns(d, [(3, 3, generate_insertion(d, cand, _context(d, cand), _chat()))])
        assert out.turns[3].bargein is not None
        assert out.turns[4].bargein is not None
        assert out.turns[5].bargein is None

    def test_spliced_dialogue_validates(self):
        d = _six_turn_dialogue()
        out = splice_turns(d, [(3, 3, self._block())])
        assert validate_dialogue(out) == []

    def test_two_insertions_keep_original_order(self):
        d = _six_turn_dialogue()
        out = splice_turns(d, [(1, 1, self._block()), (3, 3, self._block())])
        remaining = [t.text for t in out.turns]
        for text in [t.text for t in d.turns]:
            assert text in remaining
            remaining = remaining[remaining.index(text) + 1:]

    def test_state_indices_shift(self):
        d = with_states(_six_turn_dialogue(), {3: {"k": "v"}})
        out = splice_turns(d, [(3, 3, self._block())])
        assert states_of(out) == {6: {"k": "v"}}

    @pytest.mark.parametrize("seed", range(3))  # the erroneous chunk is 1, 0, 2
    def test_insertion_inside_a_dictation_block_keeps_the_correction(self, seed):
        value = "0123456789"
        text = f"My number is {value} thanks."
        start = text.index(value)
        d = make_dialogue(
            texts=[(Role.USER, text), (Role.ASSISTANT, "Noted.")],
            spans={0: (("phone", start, start + len(value)),)},
        )
        d = dictate(d, 0, "phone", ["012", "345", "6789"], rng_for(seed, "err"),
                    CrossTurnConfig(p_error=1.0))
        (err,) = [t.index for t in d.turns if t.crossturn and t.crossturn.is_error and t.role is Role.USER]
        out = splice_turns(d, [(err + 1, err + 1, self._block())])
        assert corrections(d.turns) == {err: err + 2}
        pointer = corrections(out.turns)[err]
        assert pointer == err + 5
        assert out.turns[pointer].text.startswith("Wait, I meant")
        assert reconstruct_value(out, "phone") == [value]


class TestStage:
    def _stateful(self):
        return with_states(_six_turn_dialogue(), {0: {"destination": "Paris", "day": "Friday"}})

    def test_stage_output_validates_and_is_deterministic(self):
        d = self._stateful()
        cfg = BargeInConfig(sample_rate=1.0)
        a = apply_bargein_stage(d, cfg, _chat(), _chat(), rng_for(3, d.dialogue_id, "bi"))
        b = apply_bargein_stage(d, cfg, _chat(), _chat(), rng_for(3, d.dialogue_id, "bi"))
        assert a == b
        assert validate_dialogue(a) == []
        assert any(t.bargein is not None for t in a.turns)

    def test_state_at_each_original_turn_is_kept(self):
        d = with_states(_six_turn_dialogue(), {
            0: {"destination": "Paris", "day": "Friday"},
            3: {"destination": "Paris", "day": "Friday", "class": "economy"},
        })
        out = apply_bargein_stage(d, BargeInConfig(sample_rate=1.0),
                                  _chat(), _chat(), rng_for(3, d.dialogue_id, "bi"))
        assert len(out.turns) > len(d.turns)
        at = 0
        for t in d.turns:
            at = next(p for p in range(at, len(out.turns)) if out.turns[p].with_(index=t.index) == t)
            assert out.state_at(at) == d.state_at(t.index)

    def test_stage_on_its_own_output_keeps_alternation(self):
        """A second pass, as when an augmented corpus is augmented again, adds
        no block after an interruption, so no three assistant turns follow."""
        for seed in range(20):
            once = apply_bargein_stage(self._stateful(), BargeInConfig(sample_rate=1.0),
                                       _chat(), _chat(), rng_for(seed, "once", "bi"))
            twice = apply_bargein_stage(once, BargeInConfig(sample_rate=1.0),
                                        _chat(), _chat(), rng_for(seed, "twice", "bi"))
            assert validate_dialogue(twice) == [], seed

    def test_unjudgeable_candidates_skipped_without_failing(self):
        # no belief state, so error-recovery candidates can never be validated
        d = _six_turn_dialogue()
        out = apply_bargein_stage(d, BargeInConfig(sample_rate=1.0),
                                  _chat(), _chat(), rng_for(3, d.dialogue_id, "bi"))
        assert validate_dialogue(out) == []

    def test_truncation_token_only_on_truncated_assistant_turns(self):
        d = self._stateful()
        out = apply_bargein_stage(d, BargeInConfig(sample_rate=1.0),
                                  _chat(), _chat(), rng_for(9, "tok", "bi"))
        assert any("<bargein>" in t.text for t in out.turns)
        for t in out.turns:
            if "<bargein>" in t.text:
                assert t.role is Role.ASSISTANT
                assert t.text.endswith("<bargein>")
                assert t.bargein is not None
