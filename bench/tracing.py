"""Spans and timed client wrappers for the benchmark's traced run.

Spans are recorded only from the benchmark's own files, around calls into
todvoice's public functions; nothing inside src/ is instrumented. The traced
augment replay repeats `process_dialogue`'s stage sequence with the same
`rng_for(seed, dialogue_id, stage)` streams, so its output can be compared
byte for byte with `run_pipeline`'s.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from todvoice.bargein import apply_bargein_stage
from todvoice.clients import ASRClient, ChatClient, ClientError, EmbedClient, TTSClient
from todvoice.corpus import Dialogue, validate_dialogue
from todvoice.crossturn import apply_crossturn_stage
from todvoice.disfluency import apply_disfluency_stage
from todvoice.emotion import annotate_dialogue
from todvoice.pipeline import QuarantineRow
from todvoice.seeding import rng_for
from todvoice.speakers import assign_assistant_speaker, sample_user_speaker
from todvoice.synthesis import synthesize_dialogue

STAGES = ("crossturn", "bargein", "disfluency", "emotion", "speakers", "synthesis", "validate")
CLIENT_ROLES = ("generator", "judge", "tts", "asr", "embed")
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MIN_BEYOND_TAIL = 10


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


class Tracer:
    """In-memory spans with parent links, for one serial replay."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_time(self, name: str) -> float:
        """Total time of `name` spans minus the time their direct children cover."""
        own = {i: s.end - s.start for i, s in enumerate(self.spans) if s.name == name}
        for s in self.spans:
            if s.parent in own:
                own[s.parent] -= s.end - s.start
        return sum(own.values())


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of TAIL_PERCENTILES that leaves at least
    MIN_BEYOND_TAIL samples above it, or the median when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        k = math.ceil(n * pct / 100)
        if n - k >= MIN_BEYOND_TAIL:
            return pct, ordered[k - 1]
    return 50.0, statistics.median(ordered) if ordered else 0.0


class _Timed:
    """Puts a `clients.<role>` span around each call and counts ClientErrors."""

    def __init__(self, inner, role: str, tracer: Tracer, failures: Counter) -> None:
        self.inner, self.role, self.tracer, self.failures = inner, role, tracer, failures

    def _call(self, fn, *args, **kwargs):
        with self.tracer.span(f"clients.{self.role}"):
            try:
                return fn(*args, **kwargs)
            except ClientError:
                self.failures[self.role] += 1
                raise


class TimedChat(_Timed, ChatClient):
    def chat(self, messages):
        return self._call(self.inner.chat, messages)


class TimedTTS(_Timed, TTSClient):
    audio_bytes = 0

    def synthesize(self, text, speaker_ref=None, style=None):
        audio, duration = self._call(self.inner.synthesize, text, speaker_ref=speaker_ref, style=style)
        self.audio_bytes += len(audio)
        return audio, duration


class TimedASR(_Timed, ASRClient):
    def transcribe(self, audio_path):
        return self._call(self.inner.transcribe, audio_path)


class TimedEmbed(_Timed, EmbedClient):
    def embed(self, audio_path):
        return self._call(self.inner.embed, audio_path)


def wrap_clients(clients, tracer: Tracer, failures: Counter):
    """A copy of a todvoice `Clients` whose five roles are traced."""
    return dataclasses.replace(
        clients,
        generator=TimedChat(clients.generator, "generator", tracer, failures),
        judge=TimedChat(clients.judge, "judge", tracer, failures),
        tts=TimedTTS(clients.tts, "tts", tracer, failures),
        asr=TimedASR(clients.asr, "asr", tracer, failures),
        embed=TimedEmbed(clients.embed, "embed", tracer, failures),
    )


@dataclasses.dataclass
class Outcomes:
    crossturn_changed: int = 0
    bargein_inserted: int = 0
    disfluent_turns: int = 0
    violations: int = 0


def replay_dialogue(d: Dialogue, cfg, clients, pool, assistant_profiles, tracer: Tracer, outcomes: Outcomes):
    """`process_dialogue`'s stage sequence with a span around each public stage
    call. Returns (dialogue, manifest rows, None) or (None, [], QuarantineRow)."""
    seed, did = cfg.global_seed, d.dialogue_id
    stage = "crossturn"
    try:
        if cfg.stages.crossturn:
            with tracer.span("crossturn"):
                out = apply_crossturn_stage(d, cfg.crossturn, rng_for(seed, did, "crossturn"))
            outcomes.crossturn_changed += out != d
            d = out
        stage = "bargein"
        if cfg.stages.bargein:
            before = len(d.turns)
            with tracer.span("bargein"):
                d = apply_bargein_stage(d, cfg.bargein, clients.judge, clients.generator,
                                        rng_for(seed, did, "bargein"))
            outcomes.bargein_inserted += (len(d.turns) - before) // 3
        stage = "disfluency"
        if cfg.stages.disfluency:
            with tracer.span("disfluency"):
                turns = apply_disfluency_stage(d.turns, cfg.disfluency, clients.generator,
                                               rng_for(seed, did, "disfluency"))
                d = d.with_turns(turns)
            outcomes.disfluent_turns += sum(1 for t in d.turns if t.disfluency)
        stage = "emotion"
        if cfg.stages.emotion:
            with tracer.span("emotion"):
                d = annotate_dialogue(d, clients.judge, skip_labeled=d.source == "emowoz")
        stage = "speakers"
        if pool is not None:
            with tracer.span("speakers"):
                rng = rng_for(seed, did, "speaker")
                user_sp = sample_user_speaker(pool, cfg.pool_weights, rng)
                assistant_sp = assign_assistant_speaker(assistant_profiles, rng) if assistant_profiles else None
                d = dataclasses.replace(d, user_speaker=user_sp, assistant_speaker=assistant_sp)
        stage = "synthesis"
        rows = []
        if cfg.stages.synthesis:
            with tracer.span("synthesis"):
                d, rows = synthesize_dialogue(d, clients.tts, cfg.out_dir, rng_for(seed, did, "style"))
                if clients.directory is not None:
                    for t in d.turns:
                        if t.audio_ref:
                            sp = d.user_speaker if t.role.value == "user" else d.assistant_speaker
                            clients.directory.register(str(Path(cfg.out_dir) / t.audio_ref), t.text,
                                                       sp.speaker_id if sp else t.role.value)
        stage = "validate"
        with tracer.span("validate"):
            violations = validate_dialogue(d)
        outcomes.violations += len(violations)
        if violations:
            summary = "; ".join(f"{v.rule}@{v.turn_index}" for v in violations[:5])
            return None, [], QuarantineRow(did, "validate", summary)
        return d, rows, None
    except Exception as exc:  # noqa: BLE001 - mirrors the pipeline's quarantine boundary
        return None, [], QuarantineRow(did, stage, f"{type(exc).__name__}: {exc}")


def client_metrics(tracer: Tracer, failures: Counter) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    for role in CLIENT_ROLES:
        samples = tracer.durations(f"clients.{role}")
        out[f"clients.{role}.calls"] = (len(samples), "count")
        out[f"clients.{role}.s"] = (sum(samples), "s")
        out[f"clients.{role}.failed"] = (failures[role], "count")
    return out


def stage_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    for name in STAGES:
        samples = tracer.durations(name)
        pct, tail_s = tail(samples)
        out[f"{name}.s"] = (sum(samples), "s")
        out[f"{name}.self_s"] = (tracer.self_time(name), "s")
        out[f"{name}.call_p50_us"] = (statistics.median(samples) * 1e6 if samples else 0.0, "us")
        out[f"{name}.call_tail_us"] = (tail_s * 1e6, "us")
        out[f"{name}.call_tail_pct"] = (pct, "pct")
        out[f"{name}.calls"] = (len(samples), "count")
    return out
