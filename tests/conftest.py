"""Shared fixtures: dialogue builders and speaker manifests."""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import pytest
import requests
from hypothesis import settings

from todvoice.clients import ChatClient, with_retries
from todvoice.corpus import Dialogue, Goal, Role, SubGoal, Turn, splice_turns
from todvoice.crossturn import CrossTurnConfig, dictation_block
from todvoice.speakers import ACCENT_POOLS, AGE_BINS, GENDERS, SpeakerProfile
from todvoice.turntaking import ProbFrame

# Every property test draws the same examples on every run, so tier-1 cannot flake.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

_BIN_AGE = {"10s": 15, "20-30s": 28, "40-50s": 45, "60+": 67}


def make_goal(**constraints: str) -> Goal:
    constraints = constraints or {"food": "italian"}
    rendered = ", ".join(f"{k} = {v}" for k, v in constraints.items())
    return Goal(
        text=f"You want to find a restaurant with {rendered}.",
        sub_goals=(SubGoal(domain="restaurant", intent="find_restaurant",
                           constraints=dict(constraints), requests=("phone",)),),
    )


def make_dialogue(texts=None, dialogue_id="dlg-0001", spans=None, source="generic") -> Dialogue:
    """Alternating dialogue from (role, text) pairs; spans maps turn index to span tuples."""
    if texts is None:
        texts = [
            (Role.USER, "I want a cheap italian restaurant please."),
            (Role.ASSISTANT, "Sure, which part of town?"),
            (Role.USER, "The centre would be great."),
            (Role.ASSISTANT, "Booked. Anything else?"),
        ]
    spans = spans or {}
    turns = tuple(
        Turn(index=i, role=role, text=text, slot_spans=tuple(spans.get(i, ())))
        for i, (role, text) in enumerate(texts)
    )
    return Dialogue(dialogue_id=dialogue_id, source=source, goal=make_goal(), turns=turns)


def with_states(d: Dialogue, states: dict[int, dict[str, str]]) -> Dialogue:
    """d with states[i] as the belief state of turn i."""
    return d.with_turns(t.with_(state=states[t.index]) if t.index in states else t for t in d.turns)


def dictate(d: Dialogue, i: int, slot: str, chunks, rng, cfg=CrossTurnConfig()) -> Dialogue:
    """d with user turn i rewritten into a dictation block of chunks."""
    return splice_turns(d, [(i, i + 1, dictation_block(d.turns[i], slot, chunks, rng, cfg))])


def states_of(d: Dialogue) -> dict[int, dict[str, str]]:
    """Turn index -> belief state, for the turns that carry one."""
    return {t.index: t.state for t in d.turns if t.state is not None}


class RejectingChat(ChatClient):
    """A chat service that answers every request with HTTP 400; counts the requests."""

    def __init__(self) -> None:
        self.calls = 0

    def chat(self, messages):
        def call():
            self.calls += 1
            resp = requests.Response()
            resp.status_code = 400
            raise requests.HTTPError("400 Bad Request", response=resp)

        return with_retries(call, max_retries=2)


def user_pool_profiles(countries=("US", "NG"), duration=12.0) -> list[SpeakerProfile]:
    """One speaker per (pool, country, bin, gender) cell."""
    out = []
    sid = 0
    for pool in ACCENT_POOLS:
        for age_bin in AGE_BINS:
            for gender in GENDERS:
                for country in countries:
                    out.append(SpeakerProfile(
                        speaker_id=f"spk{sid:04d}", accent_pool=pool, country=country,
                        age=_BIN_AGE[age_bin], age_bin=age_bin, gender=gender,
                        ref_audio=f"ref/{sid:04d}.wav", ref_duration_s=duration))
                    sid += 1
    return out


def assistant_pool_profiles() -> list[SpeakerProfile]:
    return [
        SpeakerProfile(speaker_id=f"asst{i:02d}", accent_pool="native", country="US",
                       age=30, age_bin="20-30s", gender="female" if i < 5 else "male",
                       ref_audio=f"ref/a{i:02d}.wav", ref_duration_s=10.0)
        for i in range(10)
    ]


def random_frame(rng: random.Random) -> ProbFrame:
    """A frame drawn uniformly on the probability simplex."""
    a, b = sorted((rng.random(), rng.random()))
    return ProbFrame(a, b - a, 1.0 - b)


def mixed_streams(rng: random.Random, n: int, max_len: int) -> list[tuple[list[ProbFrame], str]]:
    """Four fixed labeled streams, then n random ones of 1..max_len frames.

    Half the random streams draw from dyadic frames, whose window sums are
    exact, so scores land on round thresholds; (0, 0.5, 0.5) frames cross both
    classes at once. The other half draw on the simplex."""
    listen, te, bi, both = (ProbFrame(1.0, 0.0, 0.0), ProbFrame(0.0, 1.0, 0.0),
                            ProbFrame(0.0, 0.0, 1.0), ProbFrame(0.0, 0.5, 0.5))
    pool = [listen, te, bi, both, ProbFrame(0.5, 0.5, 0.0), ProbFrame(0.25, 0.25, 0.5),
            ProbFrame(1 / 3, 1 / 3, 1 / 3)]
    streams = [
        ([listen] * 12, "turnend"),  # never fires
        ([listen] * 3 + [te] * 6, "turnend"),  # a window sum of 5.0 is met exactly on frame 7
        ([listen] * 2 + [both] * 8, "bargein"),
        ([te], "bargein"),
    ]
    for _ in range(n):
        length = rng.randint(1, max_len)
        if rng.random() < 0.5:
            frames = [rng.choice(pool) for _ in range(length)]
        else:
            frames = [random_frame(rng) for _ in range(length)]
        streams.append((frames, rng.choice(("turnend", "bargein"))))
    return streams


def set_path(doc, path: str, value) -> None:
    """Set doc's value at a dotted path of keys and list indices, e.g. "turns.0.text"."""
    *parents, last = [int(p) if p.isdigit() else p for p in path.split(".")]
    for p in parents:
        doc = doc[p]
    doc[last] = value


def write_speaker_manifest(profiles, path) -> None:
    """A speaker manifest file, as a tool outside todvoice would write it."""
    Path(path).write_text(json.dumps([dataclasses.asdict(sp) for sp in profiles]), encoding="utf-8")


@pytest.fixture
def dialogue() -> Dialogue:
    return make_dialogue()


@pytest.fixture
def user_pool() -> list[SpeakerProfile]:
    return user_pool_profiles()


@pytest.fixture
def assistant_pool() -> list[SpeakerProfile]:
    return assistant_pool_profiles()
