"""Stage adapters binding models to the :class:`TrainingEngine`.

A *task* is the engine's view of one training stage: a callable computing the
probe loss of a batch of items (the interface
:class:`~repro.meta.reweight.ExampleReweighter` expects of its ``loss_fn``),
plus what the engine and the weightings use around it:

``prepare(items)``
    Tokenize the batch once and return a closure
    ``run(reduction, sample_weights)`` re-evaluating its per-example losses
    at the model's current parameters.  The reweighter calls it so the JVP
    base and shifted evaluations share a single encode pass.

``weighted_loss(items, weights)``
    The update objective :func:`weighted_objective` of the batch under the
    *same* loss the weights were derived for.

``min_batch_size``
    The smallest batch the loss is defined on; the engine drops a trailing
    batch below it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..kb.entity import EntityMentionPair
from ..linking.crossencoder import RankingExample


def weighted_objective(run, weights: np.ndarray):
    """``Σ w_j l_j / Σ w_j``: Eq. 15 under Eq. 14's normalisation.

    ``run`` is a ``prepare`` closure.  Unit weights take the plain mean, the
    same number by the operations of an unweighted loss.
    """
    if np.all(weights == 1.0):
        return run(reduction="mean")
    return run(reduction="sum", sample_weights=weights) * (1.0 / weights.sum())


class _StageTask:
    """What both stages share: the probe loss and the update objective, both
    built from the subclass's ``prepare`` closure."""

    def __init__(self, model) -> None:
        self.model = model

    def __call__(self, items: Sequence, reduction: str = "sum"):
        return self.prepare(items)(reduction=reduction)

    def weighted_loss(self, items: Sequence, weights: np.ndarray):
        return weighted_objective(self.prepare(items), weights)


class BiEncoderMetaTask(_StageTask):
    """Bi-encoder stage: in-batch contrastive loss (Eq. 6) of a :class:`BiEncoder`."""

    min_batch_size = 2  # a lone example has no in-batch negatives: its loss is 0

    def prepare(self, pairs: Sequence[EntityMentionPair]):
        return self.model.prepare_pairs_loss(pairs)


class CrossEncoderMetaTask(_StageTask):
    """Cross-encoder stage: batched softmax ranking loss of a :class:`CrossEncoder`."""

    min_batch_size = 1

    def prepare(self, examples: Sequence[RankingExample]):
        return self.model.prepare_examples_loss(examples)
