"""``repro.training`` — the training engine and its stage adapters.

The engine (:class:`TrainingEngine`) owns the one
weight→accumulate→update loop every method trains with — shuffling, the
weighted objective, gradient accumulation, clipping, constant-rate Adam,
per-step structured metrics and resumable checkpointing — parameterised by
how a batch is weighted; :class:`MetaTrainingEngine` is its seed-supervised
form (Algorithm 1).  Task adapters (:class:`BiEncoderMetaTask`,
:class:`CrossEncoderMetaTask`) bind it to the two BLINK stages.
"""

from .engine import EngineConfig, MetaTrainingEngine, StepMetrics, TrainingEngine
from .tasks import BiEncoderMetaTask, CrossEncoderMetaTask

__all__ = [
    "EngineConfig",
    "TrainingEngine",
    "MetaTrainingEngine",
    "StepMetrics",
    "BiEncoderMetaTask",
    "CrossEncoderMetaTask",
]
