"""End-to-end corpus runs: augment, synthesize, validate, split, transcribe.

Every dialogue gets its own seed stream derived from (global_seed,
dialogue_id, stage), so output is byte-identical across runs and worker
counts. A dialogue that fails any stage is quarantined with its reason and the
run continues.
"""

from __future__ import annotations

import dataclasses
import logging
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence, get_type_hints

from .bargein import BargeInConfig, apply_bargein_stage
from .checked import build, check, dump, known_keys, must, parse_json
from .clients import (
    ASRClient,
    ChatClient,
    ClientConfig,
    ClientError,
    EmbedClient,
    HTTPASRClient,
    HTTPChatClient,
    HTTPEmbedClient,
    HTTPTTSClient,
    StubASRClient,
    StubChatClient,
    StubDirectory,
    StubEmbedClient,
    StubTTSClient,
    TTSClient,
)
from .corpus import Dialogue, Role, SpeakerProfile, validate_dialogue
from .crossturn import CrossTurnConfig, apply_crossturn_stage
from .disfluency import DisfluencyConfig, apply_disfluency_stage
from .emotion import annotate_dialogue
from .metrics import WerCell, build_wer_report
from .seeding import rng_for
from .speakers import (
    ConfigError,
    Pool,
    PoolWeights,
    assign_assistant_speaker,
    build_pool,
    load_speaker_manifest,
    sample_user_speaker,
    validate_assistant_pool,
)
from .synthesis import ManifestRow, synthesize_dialogue

log = logging.getLogger(__name__)

@dataclass(frozen=True)
class StageToggles:
    crossturn: bool = True
    bargein: bool = True
    disfluency: bool = True
    emotion: bool = True
    synthesis: bool = True


@dataclass(frozen=True)
class PipelineConfig:
    global_seed: int = 0
    stub: bool = True
    workers: int = 1
    out_dir: str = "out"
    stages: StageToggles = StageToggles()
    crossturn: CrossTurnConfig = CrossTurnConfig()
    bargein: BargeInConfig = BargeInConfig()
    disfluency: DisfluencyConfig = DisfluencyConfig()
    pool_weights: PoolWeights = PoolWeights()
    speaker_manifest: str | None = None
    assistant_manifest: str | None = None
    asr_corruption: float = 0.0
    clients: Mapping[str, ClientConfig] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not 0 <= self.asr_corruption <= 1:
            raise ConfigError(must("asr_corruption", "a number in [0, 1]", self.asr_corruption))


_SECTION_TYPES = {key: t for key, t in get_type_hints(PipelineConfig).items() if dataclasses.is_dataclass(t)}
# Each client role (a `Clients` field) and its live client, built as cls(config, role);
# only a chat role's config may set a temperature.
_LIVE_CLIENTS = {
    "generator": HTTPChatClient,
    "judge": HTTPChatClient,
    "tts": HTTPTTSClient,
    "asr": HTTPASRClient,
    "embed": HTTPEmbedClient,
}
_CLIENT_KEYS = {
    role: [k for k in ClientConfig.__dataclass_fields__ if k != "temperature" or issubclass(cls, ChatClient)]
    for role, cls in _LIVE_CLIENTS.items()
}


def _section(where: str, section_type: Any, value: Any) -> Any:
    fields = known_keys(where, value, section_type.__dataclass_fields__, ConfigError)
    return build(section_type, where, fields, ConfigError)


def config_from_dict(data: Mapping[str, Any]) -> PipelineConfig:
    """A PipelineConfig from parsed JSON; every value is checked against its
    field's annotation, and a bad one is a ConfigError naming its key path."""
    check("config", data, "dict", ConfigError)
    kwargs: dict[str, Any] = {}
    annotations = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}
    for key, value in data.items():
        if key not in annotations:
            raise ConfigError(f"unknown config key {key!r}")
        if key in _SECTION_TYPES:
            kwargs[key] = _section(key, _SECTION_TYPES[key], value)
        elif key == "clients":
            roles = known_keys(key, value, _CLIENT_KEYS, ConfigError)
            kwargs[key] = {
                role: build(ClientConfig, f"clients.{role}",
                            known_keys(f"clients.{role}", cc, _CLIENT_KEYS[role], ConfigError), ConfigError)
                for role, cc in roles.items()
            }
        else:
            kwargs[key] = check(key, value, annotations[key], ConfigError)
    return PipelineConfig(**kwargs)


def load_config(path: str | Path) -> PipelineConfig:
    return config_from_dict(parse_json(path, ConfigError))


@dataclass
class Clients:
    generator: ChatClient
    judge: ChatClient
    tts: TTSClient
    asr: ASRClient
    embed: EmbedClient
    directory: StubDirectory | None = None


def build_clients(cfg: PipelineConfig) -> Clients:
    if cfg.stub:
        directory = StubDirectory()
        chat = StubChatClient()
        return Clients(
            generator=chat,
            judge=chat,
            tts=StubTTSClient(),
            asr=StubASRClient(directory, corruption_rate=cfg.asr_corruption, seed=cfg.global_seed),
            embed=StubEmbedClient(directory),
            directory=directory,
        )
    if missing := [role for role in _LIVE_CLIENTS if role not in cfg.clients]:
        raise ConfigError(f"no client config for {missing[0]!r} outside stub mode")
    return Clients(**{role: cls(cfg.clients[role], role) for role, cls in _LIVE_CLIENTS.items()})


@dataclass(frozen=True)
class QuarantineRow:
    dialogue_id: str
    stage: str
    reason: str

    def to_dict(self) -> dict[str, str]:
        return dump(self)


@dataclass
class RunResult:
    dialogues: list[Dialogue]
    quarantined: list[QuarantineRow]
    manifest: list[ManifestRow]


@dataclass(frozen=True)
class RunContext:
    """What the stages of one run share: config, clients and speaker pools."""

    cfg: PipelineConfig
    clients: Clients
    pool: Pool | None = None
    assistant_profiles: Sequence[SpeakerProfile] | None = None

    @classmethod
    def build(cls, cfg: PipelineConfig) -> RunContext:
        assistant_profiles = None
        assistant_ids: set[str] = set()
        if cfg.assistant_manifest:
            assistant_profiles = load_speaker_manifest(cfg.assistant_manifest)
            try:
                validate_assistant_pool(assistant_profiles)
            except ConfigError as exc:
                raise ConfigError(f"{cfg.assistant_manifest}: {exc}") from exc
            assistant_ids = {sp.speaker_id for sp in assistant_profiles}
        pool = None
        if cfg.speaker_manifest:
            pool = build_pool(load_speaker_manifest(cfg.speaker_manifest), assistant_ids)
        return cls(cfg, build_clients(cfg), pool, assistant_profiles)

    def rng(self, d: Dialogue, label: str) -> random.Random:
        return rng_for(self.cfg.global_seed, d.dialogue_id, label)


def register_audio(directory: StubDirectory | None, d: Dialogue, out_dir: str | Path) -> None:
    """Record each rendered turn's text and speaker for the stub ASR and embed clients."""
    if directory is None:
        return
    for t in d.turns:
        if t.audio_ref:
            speaker = d.user_speaker if t.role is Role.USER else d.assistant_speaker
            directory.register(
                str(Path(out_dir) / t.audio_ref), t.text, speaker.speaker_id if speaker else t.role.value
            )


class _InvalidDialogue(Exception):
    """The finished dialogue breaks a schema invariant; the message lists the violations."""


# Each stage maps (dialogue, context) to (dialogue, the manifest rows it produced).
StageResult = tuple[Dialogue, Sequence[ManifestRow]]
Stage = tuple[str, Callable[[RunContext], bool], Callable[[Dialogue, RunContext], StageResult]]


def _crossturn(d: Dialogue, ctx: RunContext) -> StageResult:
    return apply_crossturn_stage(d, ctx.cfg.crossturn, ctx.rng(d, "crossturn")), ()


def _bargein(d: Dialogue, ctx: RunContext) -> StageResult:
    judge, generator = ctx.clients.judge, ctx.clients.generator
    return apply_bargein_stage(d, ctx.cfg.bargein, judge, generator, ctx.rng(d, "bargein")), ()


def _disfluency(d: Dialogue, ctx: RunContext) -> StageResult:
    rng = ctx.rng(d, "disfluency")
    turns = apply_disfluency_stage(d.turns, ctx.cfg.disfluency, ctx.clients.generator, rng, dialogue_id=d.dialogue_id)
    return d.with_turns(turns), ()


def _emotion(d: Dialogue, ctx: RunContext) -> StageResult:
    return annotate_dialogue(d, ctx.clients.judge, skip_labeled=d.source == "emowoz"), ()


def _speakers(d: Dialogue, ctx: RunContext) -> StageResult:
    rng = ctx.rng(d, "speaker")
    user_sp = sample_user_speaker(ctx.pool, ctx.cfg.pool_weights, rng)
    assistant_sp = assign_assistant_speaker(ctx.assistant_profiles, rng) if ctx.assistant_profiles else None
    return dataclasses.replace(d, user_speaker=user_sp, assistant_speaker=assistant_sp), ()


def _synthesis(d: Dialogue, ctx: RunContext) -> StageResult:
    return synthesize_dialogue(d, ctx.clients.tts, ctx.cfg.out_dir, ctx.rng(d, "style"))


def _validate(d: Dialogue, ctx: RunContext) -> StageResult:
    violations = validate_dialogue(d)
    if violations:
        raise _InvalidDialogue("; ".join(v.rule + v.at("@") for v in violations[:5]))
    return d, ()


# The augment stages in run order: (name, enabled(ctx), apply). A dialogue
# whose stage raises is quarantined under that stage's name.
STAGES: tuple[Stage, ...] = (
    ("crossturn", lambda ctx: ctx.cfg.stages.crossturn, _crossturn),
    ("bargein", lambda ctx: ctx.cfg.stages.bargein, _bargein),
    ("disfluency", lambda ctx: ctx.cfg.stages.disfluency, _disfluency),
    ("emotion", lambda ctx: ctx.cfg.stages.emotion, _emotion),
    ("speakers", lambda ctx: ctx.pool is not None, _speakers),
    ("synthesis", lambda ctx: ctx.cfg.stages.synthesis, _synthesis),
    ("validate", lambda ctx: True, _validate),
)


def process_dialogue(
    d: Dialogue, ctx: RunContext
) -> tuple[Dialogue | None, list[ManifestRow], QuarantineRow | None]:
    """Run the enabled STAGES over one dialogue: (dialogue, manifest rows, None),
    or (None, [], QuarantineRow) for the first stage that raises."""
    rows: list[ManifestRow] = []
    for name, enabled, apply in STAGES:
        if not enabled(ctx):
            continue
        try:
            d, stage_rows = apply(d, ctx)
        except Exception as exc:  # noqa: BLE001 - any stage failure quarantines the dialogue
            reason = str(exc) if isinstance(exc, _InvalidDialogue) else f"{type(exc).__name__}: {exc}"
            log.warning("%s quarantined at %s: %s", d.dialogue_id, name, reason)
            return None, [], QuarantineRow(d.dialogue_id, name, reason)
        rows.extend(stage_rows)
    return d, rows, None


def run_pipeline(dialogues: Sequence[Dialogue], cfg: PipelineConfig) -> RunResult:
    ctx = RunContext.build(cfg)
    if cfg.workers <= 1:
        results = [process_dialogue(d, ctx) for d in dialogues]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool_exec:
            results = list(pool_exec.map(process_dialogue, dialogues, repeat(ctx)))

    out: list[Dialogue] = []
    quarantined: list[QuarantineRow] = []
    manifest: list[ManifestRow] = []
    for processed, rows, bad in results:
        if bad is not None:
            quarantined.append(bad)
        else:
            out.append(processed)
            manifest.extend(rows)
    manifest.sort(key=lambda r: (r.dialogue_id, r.turn))
    return RunResult(out, quarantined, manifest)


# --- split -------------------------------------------------------------------------


def largest_remainder_sizes(n: int, ratios: Sequence[float]) -> list[int]:
    quotas = [n * r for r in ratios]
    sizes = [int(q) for q in quotas]
    shortfall = n - sum(sizes)
    by_fraction = sorted(range(len(ratios)), key=lambda i: (-(quotas[i] - sizes[i]), i))
    for i in by_fraction[:shortfall]:
        sizes[i] += 1
    return sizes


def split_corpus(
    dialogues: Sequence[Dialogue],
    ratios: Sequence[float] = (0.75, 0.10, 0.15),
    seed: int = 0,
) -> tuple[list[Dialogue], list[Dialogue], list[Dialogue]]:
    """Disjoint, exhaustive train/valid/test split by seeded shuffle."""
    if len(ratios) != 3 or not all(0 <= r <= 1 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError("ratios must be three numbers in [0, 1] summing to 1")
    ordered = sorted(dialogues, key=lambda d: d.dialogue_id)
    rng_for(seed, "split").shuffle(ordered)
    n_train, n_valid, n_test = largest_remainder_sizes(len(ordered), ratios)
    return (
        ordered[:n_train],
        ordered[n_train : n_train + n_valid],
        ordered[n_train + n_valid :],
    )


# --- ASR validation ------------------------------------------------------------------


@dataclass(frozen=True)
class WerValidation:
    report: dict[str, WerCell]
    failed_files: int


def wer_validation(
    dialogues: Sequence[Dialogue],
    sample_n: int,
    asr: ASRClient,
    audio_root: str | Path,
    seed: int = 0,
) -> WerValidation:
    """Transcribe sampled user turns and report WER per accent pool."""
    ordered = sorted(dialogues, key=lambda d: d.dialogue_id)
    rng = rng_for(seed, "wer_validation")
    if sample_n < len(ordered):
        ordered = rng.sample(ordered, sample_n)
        ordered.sort(key=lambda d: d.dialogue_id)
    rows: list[tuple[str, str, str]] = []
    failed = 0
    for d in ordered:
        accent = d.user_speaker.accent_pool if d.user_speaker else "unknown"
        for t in d.user_turns():
            if not t.audio_ref:
                continue
            try:
                hyp = asr.transcribe(str(Path(audio_root) / t.audio_ref))
            except ClientError as exc:
                log.warning("ASR failed on %s turn %d: %s", d.dialogue_id, t.index, exc)
                failed += 1
                continue
            rows.append((accent, t.text, hyp))
    return WerValidation(build_wer_report(rows), failed)

