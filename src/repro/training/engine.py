"""The training loop: weight a batch, then update.

:class:`TrainingEngine` owns the one epoch loop both linking stages (bi-encoder
or cross-encoder, abstracted behind a task adapter from
:mod:`repro.training.tasks`) are trained with, whatever the method.  The
methods the paper compares differ only in how a batch is *weighted*:

* BLINK — every example under its own ``weight`` (1 unless the data says
  otherwise): :func:`item_weights`, the default;
* DL4EL — weights from the batch's own per-example losses
  (:class:`repro.linking.dl4el.DL4ELTrainer`);
* MetaBLINK — weights from a freshly sampled seed batch through an
  :class:`~repro.meta.reweight.ExampleReweighter` (Alg. 1, Eq. 13–14):
  :class:`MetaTrainingEngine`.

Each step then runs the same cycle:

1. **weight** — the weighting maps the shuffled batch to per-example weights;
   a batch whose weights are all ≤ 0 is skipped (and counted);
2. **update** — the gradient of the task's weighted objective
   ``Σ w_j l_j / Σ w_j`` is clipped and Adam applies one step at a constant
   learning rate: one update per batch, as in Ren et al. (2018).

Every step appends a :class:`StepMetrics` record.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..nn import Adam, clip_grad_norm
from ..utils.config import MetaConfig
from ..utils.logging import MetricHistory, get_logger
from ..utils.rng import batched_indices

_LOGGER = get_logger("training.engine")

#: A weighting maps one batch of items to one weight per item.
Weighting = Callable[[Sequence], np.ndarray]


def item_weights(batch: Sequence) -> np.ndarray:
    """Uniform weighting: every item under the ``weight`` it carries (1 by default)."""
    return np.array([item.weight for item in batch], dtype=np.float64)


@dataclass
class StepMetrics:
    """Structured record of one weight→update step."""

    step: int
    epoch: int
    loss: float
    learning_rate: float
    selected_fraction: float
    seed_gradient_norm: float
    weight_sum: float
    batch_size: int
    skipped: bool
    duration_s: float


class TrainingEngine:
    """Own the weight→update cycle for one training stage.

    Parameters
    ----------
    model:
        The stage's :class:`repro.nn.Module`.
    task:
        A task adapter (see :mod:`repro.training.tasks`): ``weighted_loss``
        is the update objective, ``min_batch_size`` the smallest batch its
        loss is defined on.
    weighting:
        How a batch is weighted (default :func:`item_weights`).
    learning_rate / batch_size / epochs / max_grad_norm:
        Stage hyper-parameters (:meth:`for_stage` lifts them from a stage
        config).
    """

    def __init__(
        self,
        model,
        task,
        weighting: Weighting = item_weights,
        *,
        learning_rate: float,
        batch_size: int,
        epochs: int,
        max_grad_norm: float = 1.0,
    ) -> None:
        self.model = model
        self.task = task
        self.weighting = weighting
        self.batch_size = batch_size
        self.default_epochs = epochs
        self.max_grad_norm = max_grad_norm
        self.optimizer = Adam(model.parameters(), lr=learning_rate)
        self.history = MetricHistory()
        self.step_metrics: List[StepMetrics] = []
        #: ‖∇L_seed‖ behind the latest weights (0 for weightings without a seed set).
        self.seed_gradient_norm = 0.0
        self._rng: Optional[np.random.Generator] = None

    @classmethod
    def for_stage(cls, model, task, config, **kwargs) -> "TrainingEngine":
        """An engine with a stage config's learning rate, batch size, epochs and clipping norm."""
        return cls(
            model,
            task,
            learning_rate=config.learning_rate,
            batch_size=config.batch_size,
            epochs=config.epochs,
            max_grad_norm=config.max_grad_norm,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------
    def fit(self, items: Sequence, epochs: Optional[int] = None, seed: int = 0) -> MetricHistory:
        """Train ``epochs`` epochs on ``items``, shuffled by ``default_rng(seed)``.

        A second call trains again from the model's and the optimiser's
        current state.  Returns the per-epoch mean loss history plus, over
        all steps so far, the mean ``selected_fraction`` and the count of
        ``skipped_steps``.
        """
        items = list(items)
        if not items:
            raise ValueError("cannot train on an empty item list")
        epochs = self.default_epochs if epochs is None else epochs
        self._rng = np.random.default_rng(seed)
        warned = False

        self.model.train()
        try:
            for epoch in range(epochs):
                epoch_losses: List[float] = []
                epoch_skipped = 0
                for index_batch in batched_indices(len(items), self.batch_size, self._rng):
                    if len(index_batch) < self.task.min_batch_size:
                        continue
                    step_start = time.perf_counter()
                    batch = [items[i] for i in index_batch]
                    weights = np.asarray(self.weighting(batch), dtype=np.float64)
                    if weights.sum() <= 0.0:
                        # Nothing in this batch is worth a step.
                        epoch_skipped += 1
                        self._record_step(epoch, float("nan"), weights, True, step_start)
                        continue

                    loss = self.task.weighted_loss(batch, weights)
                    self.model.zero_grad()
                    loss.backward()
                    clip_grad_norm(self.model.parameters(), self.max_grad_norm)
                    self.optimizer.step()
                    # Free the gradients before the next forward; a trained model keeps none.
                    self.model.zero_grad()
                    loss_value = loss.item()
                    epoch_losses.append(loss_value)
                    self._record_step(epoch, loss_value, weights, False, step_start)
                mean_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
                self.history.add("loss", mean_loss)
                _LOGGER.debug("engine epoch %d loss %.4f", epoch, mean_loss)
                if not warned and epoch_skipped > len(epoch_losses):
                    warned = True
                    _LOGGER.warning(
                        "epoch %d skipped %d of %d steps: their weights were all <= 0",
                        epoch, epoch_skipped, epoch_skipped + len(epoch_losses),
                    )
            steps = self.step_metrics
            self.history.add(
                "selected_fraction",
                float(np.mean([m.selected_fraction for m in steps])) if steps else 0.0,
            )
            self.history.add("skipped_steps", sum(m.skipped for m in steps))
        finally:
            self.model.eval()
        return self.history

    def _record_step(
        self, epoch: int, loss: float, weights: np.ndarray, skipped: bool, step_start: float
    ) -> None:
        self.step_metrics.append(
            StepMetrics(
                step=len(self.step_metrics),
                epoch=epoch,
                loss=float(loss),
                learning_rate=float(self.optimizer.lr),
                selected_fraction=float((weights > 0).mean()),
                seed_gradient_norm=float(self.seed_gradient_norm),
                weight_sum=float(weights.sum()),
                batch_size=len(weights),
                skipped=skipped,
                duration_s=time.perf_counter() - step_start,
            )
        )


class MetaTrainingEngine(TrainingEngine):
    """The loop's seed-supervised form (Algorithm 1).

    Every synthetic batch is weighted against a seed batch freshly drawn from
    the engine's own RNG stream; ``meta_config`` holds the reweighting
    hyper-parameters.

    Example::

        task = BiEncoderMetaTask(model)
        engine = MetaTrainingEngine(model, task, learning_rate=5e-3,
                                    batch_size=16, epochs=3)
        history = engine.fit(synthetic_pairs, seed_pairs, seed=0)
    """

    def __init__(
        self,
        model,
        task,
        *,
        learning_rate: float,
        batch_size: int,
        epochs: int,
        max_grad_norm: float = 1.0,
        meta_config: Optional[MetaConfig] = None,
    ) -> None:
        super().__init__(
            model, task, self._seed_supervised_weights,
            learning_rate=learning_rate, batch_size=batch_size, epochs=epochs,
            max_grad_norm=max_grad_norm,
        )
        self.meta_config = meta_config or MetaConfig()
        # Imported here (not at module level): repro.meta's trainer builds
        # this engine, so the packages reference each other.
        from ..meta.reweight import ExampleReweighter

        self.reweighter = ExampleReweighter(model, task, self.meta_config)
        self._seed_items: List = []

    def fit(
        self,
        synthetic_items: Sequence,
        seed_items: Sequence,
        epochs: Optional[int] = None,
        seed: int = 0,
    ) -> MetricHistory:
        """Train on ``synthetic_items`` weighted under ``seed_items``' supervision."""
        self._seed_items = list(seed_items)
        if not self._seed_items:
            raise ValueError("seed item list must not be empty")
        return super().fit(synthetic_items, epochs=epochs, seed=seed)

    def _seed_supervised_weights(self, batch: Sequence) -> np.ndarray:
        size = min(self.meta_config.seed_batch_size, len(self._seed_items))
        seed_indices = self._rng.choice(len(self._seed_items), size=size, replace=False)
        result = self.reweighter.compute_weights(batch, [self._seed_items[i] for i in seed_indices])
        self.seed_gradient_norm = result.seed_gradient_norm
        return result.weights
