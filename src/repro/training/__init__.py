"""``repro.training`` — the training engine and its stage adapters.

The engine (:class:`TrainingEngine`) owns the one weight→update loop every
method trains with — shuffling, the weighted objective, clipping,
constant-rate Adam and per-step structured metrics — parameterised by how a
batch is weighted; :class:`MetaTrainingEngine` is its seed-supervised
form (Algorithm 1).  Task adapters (:class:`BiEncoderMetaTask`,
:class:`CrossEncoderMetaTask`) bind it to the two BLINK stages.
"""

from .engine import MetaTrainingEngine, StepMetrics, TrainingEngine
from .tasks import BiEncoderMetaTask, CrossEncoderMetaTask

__all__ = [
    "TrainingEngine",
    "MetaTrainingEngine",
    "StepMetrics",
    "BiEncoderMetaTask",
    "CrossEncoderMetaTask",
]
