"""Meta-learning core: example reweighting and the MetaBLINK trainer."""

from .metablink import MetaBlinkTrainer, MetaTrainingReport
from .reweight import ExampleReweighter, ReweightResult, normalize_weights
from .seed import (
    SEED_SOURCE,
    build_zero_shot_seed,
    few_shot_seed,
    filter_synthetic_for_seed,
    self_match_pairs,
)

__all__ = [
    "ExampleReweighter",
    "ReweightResult",
    "normalize_weights",
    "MetaBlinkTrainer",
    "MetaTrainingReport",
    "SEED_SOURCE",
    "few_shot_seed",
    "build_zero_shot_seed",
    "filter_synthetic_for_seed",
    "self_match_pairs",
]
