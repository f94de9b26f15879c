"""Seeded input generators for the benchmark.

Every generator takes a seed and returns plain records in todvoice's
documented file formats (corpus dialogues, speaker manifest rows, probability
frames); run.py writes them to files. This module does not import todvoice,
so the program sees only the generated files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# --- vocabulary ----------------------------------------------------------------

DOMAINS = {
    "restaurant": {
        "intent": "find_restaurant",
        "slots": {
            "food": ("italian", "chinese", "indian", "french", "thai", "mexican"),
            "area": ("centre", "north", "south", "east", "west"),
            "pricerange": ("cheap", "moderate", "expensive"),
        },
        "requests": ("phone", "address", "postcode"),
    },
    "hotel": {
        "intent": "book_hotel",
        "slots": {
            "stars": ("two", "three", "four", "five"),
            "parking": ("free", "paid"),
            "day": ("monday", "tuesday", "friday", "sunday"),
        },
        "requests": ("phone", "reference", "address"),
    },
    "train": {
        "intent": "book_train",
        "slots": {
            "departure": ("cambridge", "london", "paris", "oxford", "boston"),
            "destination": ("chicago", "tokyo", "london", "cambridge"),
            "day": ("monday", "wednesday", "thursday", "saturday"),
        },
        "requests": ("price", "duration", "reference"),
    },
}

FILLER = (
    "i", "would", "like", "to", "please", "a", "the", "for", "my", "trip", "we", "need",
    "something", "around", "there", "maybe", "also", "then", "that", "one", "really",
    "just", "booking", "place", "good", "nice", "today", "tomorrow", "evening", "time",
)
# Clauses the stub emotion judge keys on, so every label occurs.
MOODS = (
    "thank you so much", "sorry about that", "i am worried about this",
    "that is wrong", "this is amazing", "this is useless", "",
)
ASSISTANT_LINES = (
    "Sure, let me look that up for you.",
    "I have booked it and the reference is confirmed.",
    "Which part of town would you prefer?",
    "All set, your table is reserved for the evening.",
    "Could you tell me the day you want to travel?",
    "The train leaves at noon and the price is twelve pounds.",
    "Let me check the available options for you now.",
    "Your booking is scheduled, anything else I can help with?",
)

TURN_COUNTS = range(4, 21)  # 4-20 turns, each count equally often
USER_WORDS = (3, 25)
CODE_SLOT_RATE = 0.15
ACCENT_POOLS = ("native", "african", "indian", "asian")
AGE_BINS = {"10s": 15, "20-30s": 28, "40-50s": 45, "60+": 67}
GENDERS = ("female", "male")


def _code(rng: random.Random) -> str:
    """An alphanumeric booking code that cross-turn dictation can segment."""
    letters = "ABCDEFGHJKLMNPQRSTUVWXYZ"
    return (
        "".join(rng.choice(letters) for _ in range(2))
        + "".join(rng.choice("0123456789") for _ in range(rng.randint(3, 5)))
        + "".join(rng.choice(letters) for _ in range(2))
        + "".join(rng.choice("0123456789") for _ in range(2))
    )


def _user_turn(rng: random.Random, goal_values: list[tuple[str, str]], state: dict[str, str]) -> dict:
    """3-25 words: filler, at most one goal value (with a slot span), maybe a mood
    clause, and with probability CODE_SLOT_RATE a segmentable code slot."""
    n_words = rng.randint(*USER_WORDS)
    pieces: list[tuple[str, str | None]] = [(w, None) for w in rng.choices(FILLER, k=n_words)]
    mood = rng.choice(MOODS)
    if mood and n_words > len(mood.split()) + 1:
        pieces[: len(mood.split())] = [(w, None) for w in mood.split()]
    code = rng.random() < CODE_SLOT_RATE and n_words >= 5
    if goal_values and n_words >= 4:
        slot, value = goal_values.pop(0)
        pieces[rng.randrange(len(pieces) // 2, len(pieces) - 2 * code)] = (value, slot)
        state[slot] = value
    if code:
        pieces[-2:] = [("code", None), (_code(rng), "booking_code")]
    text, spans = "", []
    for word, slot in pieces:
        if text:
            text += " "
        if slot is not None:
            spans.append([slot, len(text), len(text) + len(word)])
        text += word
    text = text[0].upper() + text[1:] + "."
    return {"role": "user", "text": text, "slot_spans": spans, "state": dict(state)}


def dialogue_record(rng: random.Random, dialogue_id: str, n_turns: int) -> dict:
    names = rng.sample(sorted(DOMAINS), rng.randint(1, 2))
    sub_goals, goal_values = [], []
    for name in names:
        dom = DOMAINS[name]
        slots = rng.sample(sorted(dom["slots"]), 2)
        constraints = {s: rng.choice(dom["slots"][s]) for s in slots}
        goal_values.extend(constraints.items())
        sub_goals.append({
            "domain": name,
            "intent": dom["intent"],
            "constraints": constraints,
            "requests": [rng.choice(dom["requests"])],
        })
    rendered = "; ".join(f"{k} = {v}" for sg in sub_goals for k, v in sg["constraints"].items())
    state: dict[str, str] = {}
    turns = []
    for i in range(n_turns):
        if i % 2 == 0:
            turns.append(_user_turn(rng, goal_values, state))
        else:
            turns.append({"role": "assistant", "text": rng.choice(ASSISTANT_LINES)})
    return {
        "dialogue_id": dialogue_id,
        "source": "generic",
        "goal": {"text": f"You want {rendered}.", "structured": {"sub_goals": sub_goals}},
        "turns": turns,
    }


def corpus_records(seed: int, n: int, prefix: str = "dlg") -> list[dict]:
    """n dialogues of 4-20 alternating turns, user first. Turn counts cycle
    through 4..20 in a seeded order, so any 17 consecutive dialogues hold each
    count once and corpora of a given size carry the same amount of work.
    User turns have 3-25 words; ~15% carry a segmentable booking code."""
    rng = random.Random(f"corpus:{seed}:{prefix}")
    out = []
    for block in range(0, n, len(TURN_COUNTS)):
        counts = list(TURN_COUNTS)
        rng.shuffle(counts)
        for k, n_turns in enumerate(counts[: n - block]):
            out.append(dialogue_record(rng, f"{prefix}-{block + k:06d}", n_turns))
    return out


def write_ndjson(records, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


# --- speakers ------------------------------------------------------------------


def speaker_manifests(seed: int) -> tuple[list[dict], list[dict]]:
    """User pool: 1-3 speakers for every (accent pool, country, age bin, gender)
    cell, two countries per pool, references under 25 s. Assistant pool: ten
    native speakers, five female and five male, disjoint from the user pool."""
    rng = random.Random(f"speakers:{seed}")
    users = []
    for pool in ACCENT_POOLS:
        for country in (f"{pool[:2].upper()}1", f"{pool[:2].upper()}2"):
            for age_bin, age in AGE_BINS.items():
                for gender in GENDERS:
                    for _ in range(rng.randint(1, 3)):
                        sid = f"spk{len(users):04d}"
                        users.append({
                            "speaker_id": sid, "accent_pool": pool, "country": country,
                            "age": age + rng.randint(0, 3), "age_bin": age_bin, "gender": gender,
                            "ref_audio": f"ref/{sid}.wav",
                            "ref_duration_s": round(rng.uniform(5.0, 20.0), 2),
                        })
    assistants = [
        {"speaker_id": f"asst{i:02d}", "accent_pool": "native", "country": "US", "age": 30,
         "age_bin": "20-30s", "gender": "female" if i < 5 else "male",
         "ref_audio": f"ref/asst{i:02d}.wav", "ref_duration_s": 10.0}
        for i in range(10)
    ]
    return users, assistants


# --- pre-augmented dialogues ---------------------------------------------------

_EMOTION_NAMES = ("neutral", "fearful", "dissatisfied", "apologetic", "abusive", "excited", "satisfied")


def _corpus_speaker(sp: dict) -> dict:
    return {"speaker_id": sp["speaker_id"], "category": sp["accent_pool"].capitalize(),
            "country": sp["country"], "age": sp["age"], "age_bin": sp["age_bin"],
            "sex": sp["gender"], "ref_audio": sp["ref_audio"],
            "ref_duration_s": sp["ref_duration_s"]}


def augmented_records(seed: int, n: int) -> list[dict]:
    """Dialogues shaped as `augment` leaves them, without running it: every
    turn carries an emotion label, an audio_path under data/audio and a
    duration at 0.06 s per character, and each dialogue has user and assistant
    speakers drawn from speaker_manifests(seed). The audio files do not exist;
    the stub ASR and embedder key on the path alone."""
    rng = random.Random(f"augmented:{seed}")
    users, assistants = speaker_manifests(seed)
    out = corpus_records(seed, n, prefix="aug")
    for rec in out:
        rec["speaker"] = _corpus_speaker(rng.choice(users))
        rec["assistant_speaker"] = _corpus_speaker(rng.choice(assistants))
        for i, t in enumerate(rec["turns"]):
            label = rng.randrange(7) if t["role"] == "user" else 0
            t["emotion"] = {"label": label, "name": _EMOTION_NAMES[label]}
            t["audio_path"] = f"data/audio/{rec['dialogue_id']}/turn{i:02d}.wav"
            t["duration_s"] = round(0.06 * len(t["text"]), 2)
    return out


# --- turn-taking streams -------------------------------------------------------

STREAM_FRAMES = (10, 79)
RAMP = 6


def _frame(p_turnend: float, p_bargein: float) -> tuple[float, float, float]:
    te, bi = round(p_turnend, 6), round(p_bargein, 6)
    return round(1.0 - te - bi, 6), te, bi


def stream_records(seed: int, n: int) -> list[dict]:
    """n labelled streams of 10-79 frames, alternating truth turnend/bargein.

    Lengths come in pairs that sum to 89 frames, so every even-sized prefix of
    the streams has the same total length for every seed. Frames keep
    p_listen >= 0.86 (p_turnend < 0.1, p_bargein < 0.04) until the last ~6,
    which ramp toward the true class at a seeded strength, so no strategy
    fires early and each steps through nearly every frame. (Frames drawn
    uniformly on the simplex fire within the first few frames, which hides the
    per-frame window cost and makes the work depend on the seed.)"""
    rng = random.Random(f"streams:{seed}")
    lo, hi = STREAM_FRAMES
    lengths: list[int] = []
    while len(lengths) < n:
        first = rng.randint(lo, (lo + hi) // 2)
        lengths += [first, lo + hi - first]
    rows = []
    for s, n_frames in enumerate(lengths[:n]):
        truth = ("turnend", "bargein")[s % 2]
        ramp = rng.randint(RAMP - 2, RAMP + 1)
        strength = rng.uniform(0.3, 1.0)
        for t in range(n_frames):
            te, bi = rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.04)
            k = t - (n_frames - ramp)
            if k >= 0:
                push = strength * (k + 1) / ramp * 0.85
                if truth == "turnend":
                    te += push
                else:
                    bi += push
            pl, pt, pb = _frame(te, bi)
            rows.append({"stream_id": f"s{s:05d}", "t": t, "truth": truth,
                         "p_listen": pl, "p_turnend": pt, "p_bargein": pb})
    return rows
