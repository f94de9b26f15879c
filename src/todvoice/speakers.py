"""Census-weighted, demographically stratified speaker sampling.

User voices come from a three-stage draw: accent pool by configured weights,
then country uniform within the pool, then a speaker stratified so the four
age bins land at 25% each and genders at 50/50. Assistant voices come from a
fixed pool of ten native speakers, disjoint from the user pool. Both pools are
read by load_speaker_manifest, which gives every speaker the age bin of its
age: a missing bin is derived, and a stored one that disagrees is replaced.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .checked import build, check, must, parse_json
from .corpus import CorpusError, SpeakerProfile

log = logging.getLogger(__name__)

ACCENT_POOLS = ("native", "african", "indian", "asian")
AGE_BINS = ("10s", "20-30s", "40-50s", "60+")
GENDERS = ("female", "male")

MAX_REF_DURATION_S = 25.0
_MIN_AGE = 10  # the youngest age bin starts here
_COUNTRY_RETRIES = 1000


class ConfigError(ValueError):
    pass


class SamplingError(CorpusError):
    pass


def age_bin_of(age: int) -> str:
    if age < _MIN_AGE:
        raise ValueError(f"age {age} below the youngest bin")
    if age < 20:
        return "10s"
    if age < 40:
        return "20-30s"
    if age < 60:
        return "40-50s"
    return "60+"


@dataclass(frozen=True)
class PoolWeights:
    native: float = 0.7457
    african: float = 0.1619
    indian: float = 0.0092
    asian: float = 0.0832

    def __post_init__(self) -> None:
        for name in ACCENT_POOLS:
            if getattr(self, name) < 0:
                raise ConfigError(f"weight for {name} must be non-negative")
        if sum(getattr(self, name) for name in ACCENT_POOLS) <= 0:
            raise ConfigError("weights must not all be zero")


@dataclass(frozen=True)
class Pool:
    """Immutable user-speaker index keyed by (accent_pool, country, age_bin, gender)."""

    strata: Mapping[tuple[str, str, str, str], tuple[SpeakerProfile, ...]]
    countries: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __len__(self) -> int:
        return sum(len(v) for v in self.strata.values())

    def accent_pools(self) -> tuple[str, ...]:
        return tuple(p for p in ACCENT_POOLS if p in self.countries)


def build_pool(
    candidates: Iterable[SpeakerProfile],
    assistant_ids: frozenset[str] | set[str] = frozenset(),
) -> Pool:
    strata: dict[tuple[str, str, str, str], list[SpeakerProfile]] = {}
    countries: dict[str, set[str]] = {}
    for sp in candidates:
        if sp.ref_duration_s is not None and sp.ref_duration_s > MAX_REF_DURATION_S:
            log.info("speaker %s excluded: reference %.1fs over the %.0fs cap",
                     sp.speaker_id, sp.ref_duration_s, MAX_REF_DURATION_S)
            continue
        if sp.speaker_id in assistant_ids:
            log.info("speaker %s excluded: reserved for the assistant pool", sp.speaker_id)
            continue
        if sp.accent_pool not in ACCENT_POOLS:
            raise ConfigError(f"unknown accent pool {sp.accent_pool!r} for {sp.speaker_id}")
        key = (sp.accent_pool, sp.country, sp.age_bin, sp.gender)
        strata.setdefault(key, []).append(sp)
        countries.setdefault(sp.accent_pool, set()).add(sp.country)
    if not strata:
        raise ConfigError("speaker pool is empty after filtering")
    return Pool(
        strata={k: tuple(v) for k, v in strata.items()},
        countries={p: tuple(sorted(c)) for p, c in countries.items()},
    )


def sample_user_speaker(pool: Pool, weights: PoolWeights, rng: random.Random) -> SpeakerProfile:
    """Three-stage draw; an empty stratum triggers bounded country resampling."""
    present = [(p, getattr(weights, p)) for p in pool.accent_pools() if getattr(weights, p) > 0]
    if not present:
        raise SamplingError("no accent pool has both weight and speakers")
    accent = rng.choices([p for p, _ in present], [w for _, w in present])[0]
    age_bin = rng.choice(AGE_BINS)
    gender = rng.choice(GENDERS)
    countries = pool.countries[accent]
    for _ in range(_COUNTRY_RETRIES):
        country = rng.choice(countries)
        stratum = pool.strata.get((accent, country, age_bin, gender))
        if stratum:
            return rng.choice(stratum)
    raise SamplingError(
        f"no speaker found for pool={accent}, bin={age_bin}, gender={gender} "
        f"after {_COUNTRY_RETRIES} country draws"
    )


def validate_assistant_pool(profiles: Sequence[SpeakerProfile]) -> None:
    if len(profiles) != 10:
        raise ConfigError(f"assistant pool must hold exactly 10 speakers, got {len(profiles)}")
    if any(sp.accent_pool != "native" for sp in profiles):
        raise ConfigError("assistant pool must be all native-accent speakers")
    females = sum(1 for sp in profiles if sp.gender == "female")
    if females != 5:
        raise ConfigError(f"assistant pool must be 5 female / 5 male, got {females} female")
    if len({sp.speaker_id for sp in profiles}) != 10:
        raise ConfigError("assistant pool speaker ids must be unique")


def assign_assistant_speaker(
    assistant_pool: Sequence[SpeakerProfile], rng: random.Random
) -> SpeakerProfile:
    """One speaker of a pool that validate_assistant_pool accepted."""
    return rng.choice(list(assistant_pool))


# --- manifests ----------------------------------------------------------------


def _profile_from_dict(row: Any, where: str) -> SpeakerProfile:
    """A manifest row, checked field by field; accent pool and gender are
    lower-cased, and the age bin is the age's: a missing one is derived, and a
    stored one that disagrees is warned about and replaced."""
    if isinstance(row, dict):
        age = check(f"{where}.age", row.get("age"), "int", ConfigError)
        if age < _MIN_AGE:
            raise ConfigError(must(f"{where}.age", f"an integer of at least {_MIN_AGE}", age))
        row = {**row, "age_bin": row.get("age_bin") or age_bin_of(age)}
    sp = build(SpeakerProfile, where, row, ConfigError)
    age_bin = age_bin_of(sp.age)
    if sp.age_bin != age_bin:
        log.warning("speaker %s age_bin %r disagrees with age %d; using %r", sp.speaker_id, sp.age_bin, sp.age, age_bin)
    return replace(sp, accent_pool=sp.accent_pool.lower(), gender=sp.gender.lower(), age_bin=age_bin)


def load_speaker_manifest(path: str | Path) -> list[SpeakerProfile]:
    data = check(str(path), parse_json(path, ConfigError), "list", ConfigError)
    return [_profile_from_dict(row, f"{path}[{i}]") for i, row in enumerate(data)]

