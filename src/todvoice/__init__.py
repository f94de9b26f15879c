"""Spoken-behavior augmentation and evaluation toolkit for task-oriented dialogue corpora."""

from __future__ import annotations

from .corpus import (
    BargeInMeta,
    BargeInStyle,
    BargeInType,
    CorpusError,
    CrossTurnMeta,
    Dialogue,
    DisfluencyMeta,
    Emotion,
    Goal,
    Role,
    SpeakerProfile,
    SubGoal,
    Turn,
    Violation,
    fluent_text,
    load_corpus,
    save_corpus,
    validate_dialogue,
)
from .pipeline import PipelineConfig, run_pipeline, split_corpus
from .seeding import rng_for, stable_seed

__version__ = "0.1.0"

__all__ = [
    "BargeInMeta",
    "BargeInStyle",
    "BargeInType",
    "CorpusError",
    "CrossTurnMeta",
    "Dialogue",
    "DisfluencyMeta",
    "Emotion",
    "Goal",
    "PipelineConfig",
    "Role",
    "SpeakerProfile",
    "SubGoal",
    "Turn",
    "Violation",
    "__version__",
    "fluent_text",
    "load_corpus",
    "rng_for",
    "run_pipeline",
    "save_corpus",
    "split_corpus",
    "stable_seed",
    "validate_dialogue",
]
