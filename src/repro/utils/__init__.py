"""Shared utilities: configuration, deterministic RNG, logging."""

from .config import (
    BiEncoderConfig,
    CorpusConfig,
    CrossEncoderConfig,
    EncoderConfig,
    ExperimentConfig,
    MetaConfig,
    RewriterConfig,
    default_config,
)
from .logging import MetricHistory, get_logger, set_verbosity, timed
from .rng import DEFAULT_SEED, batched_indices, derive_seed, make_rng, shuffled, spawn_rngs

__all__ = [
    "EncoderConfig",
    "BiEncoderConfig",
    "CrossEncoderConfig",
    "RewriterConfig",
    "MetaConfig",
    "CorpusConfig",
    "ExperimentConfig",
    "default_config",
    "MetricHistory",
    "get_logger",
    "set_verbosity",
    "timed",
    "DEFAULT_SEED",
    "make_rng",
    "spawn_rngs",
    "derive_seed",
    "shuffled",
    "batched_indices",
]
