"""Spoken-form text normalization rules."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from todvoice.textnorm import normalize_text, spell_cardinal, spell_ordinal


class TestSpelling:
    @pytest.mark.parametrize("n,words", [
        (0, "zero"),
        (2, "two"),
        (15, "fifteen"),
        (30, "thirty"),
        (42, "forty two"),
        (100, "one hundred"),
        (101, "one hundred one"),
        (999, "nine hundred ninety nine"),
        (1000, "one thousand"),
        (52390, "fifty two thousand three hundred ninety"),
        (1_000_000, "one million"),
        (999_999_999, "nine hundred ninety nine million nine hundred ninety nine thousand nine hundred ninety nine"),
    ])
    def test_cardinals(self, n, words):
        assert spell_cardinal(n) == words

    @pytest.mark.parametrize("n,words", [
        (1, "first"),
        (2, "second"),
        (3, "third"),
        (5, "fifth"),
        (9, "ninth"),
        (12, "twelfth"),
        (20, "twentieth"),
        (21, "twenty first"),
        (100, "one hundredth"),
    ])
    def test_ordinals(self, n, words):
        assert spell_ordinal(n) == words


class TestNormalizeText:
    def test_table_booking_example(self):
        assert normalize_text("a table for 2 at 7:30pm") == "a table for two at seven thirty pm"

    def test_ordinal_example(self):
        assert normalize_text("1st") == "first"

    def test_plain_text_identity(self):
        assert normalize_text("hello") == "hello"

    def test_currency(self):
        assert normalize_text("$50") == "fifty dollars"

    def test_currency_with_cents(self):
        out = normalize_text("$50.25")
        assert "fifty dollars" in out and "twenty five" in out

    def test_abbreviation(self):
        assert normalize_text("Dr. Smith on Main St.").startswith("doctor Smith")

    def test_fillers_kept(self):
        assert normalize_text("uh, we should go") == "uh, we should go"
        assert normalize_text("wait, wait here") == "wait, wait here"

    def test_bargein_token_stripped(self):
        assert normalize_text("I will book the <bargein>") == "I will book the"

    def test_bare_time(self):
        assert normalize_text("at 12:05") == "at twelve oh five"

    def test_unknown_patterns_pass_through(self):
        assert normalize_text("ref #AB-12x") == "ref #AB-twelvex" or "AB" in normalize_text("ref #AB-12x")

    @pytest.mark.parametrize("s", [
        "a table for 2 at 7:30pm",
        "$1,250 for the 3rd of May",
        "call Dr. Adams at 10:00am",
        "hello there",
        "one two three",
    ])
    def test_idempotent_on_supported_classes(self, s):
        once = normalize_text(s)
        assert normalize_text(once) == once

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60))
    def test_never_raises(self, s):
        normalize_text(s)
