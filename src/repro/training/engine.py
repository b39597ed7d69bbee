"""The training loop: weight a batch → accumulate → update, restartably.

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
2. **accumulate** — the gradient of the task's weighted objective
   ``Σ w_j l_j / Σ w_j`` is added to a flat accumulation buffer
   (``EngineConfig.accumulation_steps`` of them per update), which survives
   a reweighter's own zero-grad cycles;
3. **update** — the averaged gradient is clipped and Adam applies the step at
   a constant learning rate.

Every step appends a :class:`StepMetrics` record, and with a
``checkpoint_dir`` configured the engine writes a full training checkpoint
(parameters, Adam moments, engine *and* dropout RNG states, epoch cursor,
loss history) every ``checkpoint_every`` epochs.  :meth:`TrainingEngine.restore`
reloads one and :meth:`TrainingEngine.fit` continues the run bit-identically
to an uninterrupted one.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..nn import Adam, clip_grad_norm
from ..nn.layers import Dropout
from ..nn.serialization import load_training_checkpoint, save_training_checkpoint
from ..utils.config import MetaConfig
from ..utils.logging import MetricHistory, get_logger
from ..utils.rng import batched_indices

_LOGGER = get_logger("training.engine")

PathLike = Union[str, Path]

#: A weighting maps one batch of items to one weight per item.
Weighting = Callable[[Sequence], np.ndarray]


def item_weights(batch: Sequence) -> np.ndarray:
    """Uniform weighting: every item under the ``weight`` it carries (1 by default)."""
    return np.array([item.weight for item in batch], dtype=np.float64)


@dataclass(frozen=True)
class EngineConfig:
    """Orchestration knobs of the training engine.

    ``accumulation_steps`` micro-batches contribute to each optimiser update
    (their gradients are averaged).  With a ``checkpoint_dir``, a training
    checkpoint is written every ``checkpoint_every`` epochs and the oldest
    beyond ``keep_checkpoints`` are pruned.
    """

    accumulation_steps: int = 1
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 1
    keep_checkpoints: int = 3


@dataclass
class StepMetrics:
    """Structured record of one weight→accumulate(→update) step."""

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

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


class TrainingEngine:
    """Own the weight→accumulate→update cycle for one training stage.

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
    engine_config:
        Orchestration knobs.
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
        engine_config: Optional[EngineConfig] = None,
    ) -> None:
        self.model = model
        self.task = task
        self.weighting = weighting
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.default_epochs = epochs
        self.max_grad_norm = max_grad_norm
        self.config = engine_config or EngineConfig()
        if self.config.accumulation_steps < 1:
            raise ValueError("accumulation_steps must be at least 1")
        self.optimizer = Adam(model.parameters(), lr=learning_rate)
        self.history = MetricHistory()
        self.step_metrics: List[StepMetrics] = []
        #: ‖∇L_seed‖ behind the latest weights (0 for weightings without a seed set).
        self.seed_gradient_norm = 0.0
        self._rng: Optional[np.random.Generator] = None
        self._completed_epochs = 0
        self._optimizer_steps = 0

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
        """Run (or, after :meth:`restore`, continue) training on ``items``.

        ``epochs`` is the *total* epoch count of the run: a restored engine
        trains only the epochs beyond its checkpoint cursor, drawing from the
        restored RNG stream so the continuation matches an uninterrupted run
        exactly.  Returns the per-epoch mean loss history plus, over all
        steps so far, the mean ``selected_fraction`` and the count of
        ``skipped_steps``.
        """
        items = list(items)
        if not items:
            raise ValueError("cannot train on an empty item list")
        epochs = self.default_epochs if epochs is None else epochs
        if self._rng is None:
            self._rng = np.random.default_rng(seed)
        accumulation = self.config.accumulation_steps
        warned = False

        self.model.train()
        try:
            for epoch in range(self._completed_epochs, epochs):
                epoch_losses: List[float] = []
                epoch_skipped = 0
                accumulated: Optional[np.ndarray] = None
                accumulated_count = 0
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
                    gradient = self.model.gradient_vector()
                    accumulated = gradient if accumulated is None else accumulated + gradient
                    accumulated_count += 1
                    if accumulated_count >= accumulation:
                        self._apply_update(accumulated, accumulated_count)
                        accumulated, accumulated_count = None, 0
                    loss_value = loss.item()
                    epoch_losses.append(loss_value)
                    self._record_step(epoch, loss_value, weights, False, step_start)
                if accumulated is not None:
                    # Flush the trailing partial accumulation window.
                    self._apply_update(accumulated, accumulated_count)
                mean_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
                self.history.add("loss", mean_loss)
                _LOGGER.debug("engine epoch %d loss %.4f", epoch, mean_loss)
                if not warned and epoch_skipped > len(epoch_losses):
                    warned = True
                    _LOGGER.warning(
                        "epoch %d skipped %d of %d steps: their weights were all <= 0",
                        epoch, epoch_skipped, epoch_skipped + len(epoch_losses),
                    )
                self._completed_epochs = epoch + 1
                self._maybe_checkpoint()
            steps = self.step_metrics
            self.history.add(
                "selected_fraction",
                float(np.mean([m.selected_fraction for m in steps])) if steps else 0.0,
            )
            self.history.add("skipped_steps", sum(m.skipped for m in steps))
        finally:
            self.model.eval()
        return self.history

    def _apply_update(self, accumulated: np.ndarray, count: int) -> None:
        """Write the averaged accumulated gradient back and take one step."""
        flat = accumulated / count if count > 1 else accumulated
        offset = 0
        for parameter in self.model.parameters():
            size = parameter.size
            parameter.grad = flat[offset:offset + size].reshape(parameter.shape)
            offset += size
        clip_grad_norm(self.model.parameters(), self.max_grad_norm)
        self.optimizer.step()
        self.model.zero_grad()
        self._optimizer_steps += 1

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

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _dropout_states(self) -> Dict[str, object]:
        """Per-module RNG states of every Dropout layer (training-mode noise)."""
        states: Dict[str, object] = {}
        for name, module in self.model.named_modules():
            if isinstance(module, Dropout):
                states[name] = module._rng.bit_generator.state
        return states

    def _restore_dropout_states(self, states: Dict[str, object]) -> None:
        for name, module in self.model.named_modules():
            if isinstance(module, Dropout) and name in states:
                module._rng.bit_generator.state = states[name]

    def save_checkpoint(self, path: PathLike) -> Path:
        """Write a full training checkpoint (resumable via :meth:`restore`)."""
        metadata = {
            "engine": {
                "completed_epochs": self._completed_epochs,
                "optimizer_steps": self._optimizer_steps,
                "loss_history": self.history.as_dict(),
                "step_metrics": [m.to_dict() for m in self.step_metrics],
                "learning_rate": self.learning_rate,
                "batch_size": self.batch_size,
            },
            "rng": {
                "engine": self._rng.bit_generator.state if self._rng is not None else None,
                "dropout": self._dropout_states(),
            },
        }
        return save_training_checkpoint(self.model, path, optimizer=self.optimizer, metadata=metadata)

    def restore(self, path: PathLike) -> Dict[str, object]:
        """Load a checkpoint into this engine; the next :meth:`fit` continues it.

        Restores parameters, Adam moments, the engine and dropout RNG
        streams, the epoch cursor and the metric history, making the
        continued run bit-identical to one that never stopped.
        """
        metadata = load_training_checkpoint(self.model, path, optimizer=self.optimizer)
        engine_meta = metadata.get("engine", {})
        self._completed_epochs = int(engine_meta.get("completed_epochs", 0))
        self._optimizer_steps = int(engine_meta.get("optimizer_steps", 0))
        self.history = MetricHistory()
        for name, values in engine_meta.get("loss_history", {}).items():
            for value in values:
                self.history.add(name, value)
        self.step_metrics = [StepMetrics(**record) for record in engine_meta.get("step_metrics", [])]
        rng_meta = metadata.get("rng", {})
        if rng_meta.get("engine") is not None:
            self._rng = np.random.default_rng()
            self._rng.bit_generator.state = rng_meta["engine"]
        self._restore_dropout_states(rng_meta.get("dropout", {}))
        return metadata

    def _maybe_checkpoint(self) -> None:
        if not self.config.checkpoint_dir or self.config.checkpoint_every <= 0:
            return
        if self._completed_epochs % self.config.checkpoint_every != 0:
            return
        directory = Path(self.config.checkpoint_dir)
        path = self.save_checkpoint(directory / f"epoch-{self._completed_epochs:04d}.npz")
        _LOGGER.debug("wrote checkpoint %s", path)
        checkpoints = sorted(directory.glob("epoch-*.npz"))
        for stale in checkpoints[:-self.config.keep_checkpoints]:
            stale.unlink()


class MetaTrainingEngine(TrainingEngine):
    """The loop's seed-supervised form (Algorithm 1).

    Every synthetic batch is weighted against a seed batch freshly drawn from
    the engine's own RNG stream (so a resumed run redraws the same ones);
    ``meta_config`` holds the reweighting hyper-parameters.

    Example::

        task = BiEncoderMetaTask(model)
        engine = MetaTrainingEngine(model, task, learning_rate=5e-3,
                                    batch_size=16, epochs=3)
        history = engine.fit(synthetic_pairs, seed_pairs, seed=0)
        # ... interrupted?  restore and continue:
        engine2 = MetaTrainingEngine(fresh_model, task2, ...)
        engine2.restore("ckpts/epoch-0002.npz")
        engine2.fit(synthetic_pairs, seed_pairs, seed=0)   # epochs 3..N
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
        engine_config: Optional[EngineConfig] = None,
    ) -> None:
        super().__init__(
            model, task, self._seed_supervised_weights,
            learning_rate=learning_rate, batch_size=batch_size, epochs=epochs,
            max_grad_norm=max_grad_norm, engine_config=engine_config,
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
