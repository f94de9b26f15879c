"""Speaker pool construction and three-stage sampling statistics."""

from __future__ import annotations

import dataclasses
import json

import pytest

from todvoice.seeding import rng_for
from todvoice.speakers import (
    ACCENT_POOLS,
    AGE_BINS,
    GENDERS,
    ConfigError,
    PoolWeights,
    SamplingError,
    age_bin_of,
    assign_assistant_speaker,
    build_pool,
    load_speaker_manifest,
    sample_user_speaker,
    validate_assistant_pool,
)

from conftest import assistant_pool_profiles, user_pool_profiles, write_speaker_manifest


class TestAgeBin:
    @pytest.mark.parametrize("age,expected", [
        (10, "10s"), (19, "10s"),
        (20, "20-30s"), (39, "20-30s"),
        (40, "40-50s"), (59, "40-50s"),
        (60, "60+"), (90, "60+"),
    ])
    def test_bins(self, age, expected):
        assert age_bin_of(age) == expected

    def test_under_ten_rejected(self):
        with pytest.raises(ValueError):
            age_bin_of(9)


class TestPoolWeights:
    def test_defaults_match_census_table(self):
        w = PoolWeights()
        assert w.native == 0.7457
        assert w.african == 0.1619
        assert w.indian == 0.0092
        assert w.asian == 0.0832

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            PoolWeights(native=-0.1)

    def test_all_zero_rejected(self):
        with pytest.raises(ConfigError):
            PoolWeights(native=0, african=0, indian=0, asian=0)


class TestBuildPool:
    def test_overlong_reference_excluded(self, user_pool):
        long_ref = dataclasses.replace(user_pool[0], speaker_id="overlong", ref_duration_s=30.0)
        pool = build_pool(user_pool + [long_ref])
        assert len(pool) == len(user_pool)

    def test_exactly_25s_kept(self, user_pool):
        edge = dataclasses.replace(user_pool[0], speaker_id="edge25", ref_duration_s=25.0)
        pool = build_pool(user_pool + [edge])
        assert len(pool) == len(user_pool) + 1

    def test_assistant_members_excluded(self, user_pool, assistant_pool):
        overlap = dataclasses.replace(user_pool[0], speaker_id=assistant_pool[0].speaker_id)
        pool = build_pool(user_pool + [overlap],
                          assistant_ids={p.speaker_id for p in assistant_pool})
        assert len(pool) == len(user_pool)

    def test_fixture_arithmetic(self):
        eight = user_pool_profiles(countries=("US",))[:8]
        two_long = [dataclasses.replace(p, speaker_id=p.speaker_id + "L", ref_duration_s=26.0)
                    for p in eight[:2]]
        pool = build_pool(eight[2:] + two_long)
        assert len(pool) == 6

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError):
            build_pool([])

    def test_unknown_accent_pool_rejected(self, user_pool):
        bad = dataclasses.replace(user_pool[0], speaker_id="bad", accent_pool="martian")
        with pytest.raises(ConfigError):
            build_pool([bad])


class TestSampling:
    def test_degenerate_weights_always_native(self, user_pool):
        pool = build_pool(user_pool)
        weights = PoolWeights(native=1.0, african=0.0, indian=0.0, asian=0.0)
        rng = rng_for(0, "native-only")
        for _ in range(200):
            assert sample_user_speaker(pool, weights, rng).accent_pool == "native"

    def test_accent_age_gender_distributions(self, user_pool):
        pool = build_pool(user_pool)
        weights = PoolWeights()
        rng = rng_for(123, "dist")
        n = 100_000
        accents: dict[str, int] = {}
        bins: dict[str, int] = {}
        genders: dict[str, int] = {}
        for _ in range(n):
            sp = sample_user_speaker(pool, weights, rng)
            accents[sp.accent_pool] = accents.get(sp.accent_pool, 0) + 1
            bins[sp.age_bin] = bins.get(sp.age_bin, 0) + 1
            genders[sp.gender] = genders.get(sp.gender, 0) + 1
        assert abs(accents["native"] / n - 0.7457) <= 0.01
        assert abs(accents["african"] / n - 0.1619) <= 0.01
        assert abs(accents["indian"] / n - 0.0092) <= 0.003
        assert abs(accents["asian"] / n - 0.0832) <= 0.01
        for b in AGE_BINS:
            assert abs(bins[b] / n - 0.25) <= 0.01
        for g in GENDERS:
            assert abs(genders[g] / n - 0.5) <= 0.01

    def test_sparse_stratum_falls_back_to_another_country(self, user_pool):
        # drop every NG female so those strata force a country redraw
        thinned = [p for p in user_pool if not (p.country == "NG" and p.gender == "female")]
        pool = build_pool(thinned)
        rng = rng_for(5, "sparse")
        for _ in range(500):
            sp = sample_user_speaker(pool, PoolWeights(), rng)
            assert not (sp.country == "NG" and sp.gender == "female")

    def test_impossible_stratum_raises(self):
        # a single-speaker pool cannot satisfy most (bin, gender) draws
        only = user_pool_profiles(countries=("US",))[:1]
        pool = build_pool(only)
        rng = rng_for(6, "impossible")
        with pytest.raises(SamplingError):
            for _ in range(50):
                sample_user_speaker(pool, PoolWeights(), rng)


class TestAssistantPool:
    def test_valid_pool_accepted(self, assistant_pool):
        validate_assistant_pool(assistant_pool)

    def test_draws_roughly_uniform(self, assistant_pool):
        rng = rng_for(9, "asst")
        counts: dict[str, int] = {}
        n = 10_000
        for _ in range(n):
            sp = assign_assistant_speaker(assistant_pool, rng)
            counts[sp.speaker_id] = counts.get(sp.speaker_id, 0) + 1
        assert len(counts) == 10
        for c in counts.values():
            assert abs(c / n - 0.1) <= 0.02

    def test_nine_members_rejected(self, assistant_pool):
        with pytest.raises(ConfigError):
            validate_assistant_pool(assistant_pool[:9])

    def test_gender_imbalance_rejected(self, assistant_pool):
        skewed = [dataclasses.replace(p, gender="male") for p in assistant_pool]
        with pytest.raises(ConfigError):
            validate_assistant_pool(skewed)

    def test_non_native_rejected(self, assistant_pool):
        mixed = [dataclasses.replace(assistant_pool[0], accent_pool="asian")] + assistant_pool[1:]
        with pytest.raises(ConfigError):
            validate_assistant_pool(mixed)

    def test_duplicate_ids_rejected(self, assistant_pool):
        dup = assistant_pool[:9] + [assistant_pool[0]]
        with pytest.raises(ConfigError):
            validate_assistant_pool(dup)


def test_manifest_round_trip(tmp_path, user_pool):
    path = tmp_path / "speakers.json"
    write_speaker_manifest(user_pool, path)
    back = load_speaker_manifest(path)
    assert back == user_pool


def test_manifest_rows_are_lower_cased_and_a_missing_age_bin_is_derived(tmp_path):
    path = tmp_path / "speakers.json"
    path.write_text(json.dumps([{"speaker_id": "s1", "accent_pool": "Native", "country": "US",
                                 "age": 45, "gender": "Female"}]))
    (sp,) = load_speaker_manifest(path)
    assert (sp.accent_pool, sp.gender, sp.age_bin, sp.ref_audio) == ("native", "female", "40-50s", None)
