"""Learning to reweight synthetic data (Algorithm 1 of the paper).

The paper follows Ren et al. (2018): each training step draws a synthetic
batch and a small seed batch from the target domain, takes a *virtual* gradient
step on the synthetic batch with per-example weights ``w`` initialised at
zero, measures the seed loss at the updated parameters, and sets each weight
to the (rectified, normalised) negative gradient of that seed loss w.r.t. the
example's weight.

With ``w = 0`` the virtual step does not move the parameters, so the
meta-gradient has a closed form:

.. math::

   \\frac{\\partial L_{seed}(\\hat\\phi(w))}{\\partial w_j}\\Big|_{w=0}
   = -\\alpha \\; \\langle \\nabla_\\phi l_j(\\phi_t),\\; \\nabla_\\phi L_{seed}(\\phi_t) \\rangle

i.e. a synthetic example receives positive weight exactly when its gradient
points in the same direction as the seed-set gradient.  The dot products come
from a finite-difference Jacobian-vector product along the *unit* seed
direction (:meth:`ExampleReweighter.jvp_gradient_dots`): evaluate every
example's loss at ``φ`` and at ``φ + ε·g/‖g‖`` and rescale the quotient by
``‖g‖`` — two batched graph-free forward passes that match the exact dot
products to first order.  The exact dots
(:meth:`ExampleReweighter.per_example_gradient_dots`, one backward per
example) are kept as the reference the tests compare the JVP against.

All probe evaluations (seed gradient included) run with the model in eval
mode: dropout draws a fresh mask per forward, so probing in training mode
would measure mask noise instead of ⟨∇l_j, g_seed⟩ — catastrophically so for
the finite difference, whose quotient divides that noise by ε.  The mode is
restored afterwards, so the *update* step of Algorithm 1 still trains with
dropout active.

The weights then follow the paper's Eq. 13–14: negative ones are clipped to
zero and the remainder is normalised to sum to one.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ..kb.entity import EntityMentionPair
from ..nn.tensor import no_grad
from ..utils.config import MetaConfig
from ..utils.logging import get_logger

_LOGGER = get_logger("meta.reweight")

# A "loss function" maps a list of pairs to a repro.nn Tensor scalar (sum of
# per-pair losses) or, with reduction="none", to a vector of per-pair losses.
# Objects that additionally expose ``prepare(items) -> callable(reduction=...)``
# let the reweighter tokenize a probe batch once and re-evaluate it at
# different parameters; see repro.training.tasks for such adapters.
LossFunction = Callable[..., object]


@dataclass
class ReweightResult:
    """Outcome of one reweighting step."""

    weights: np.ndarray
    raw_gradients: np.ndarray
    seed_gradient_norm: float


def normalize_weights(raw: np.ndarray) -> np.ndarray:
    """Eq. 13–14: clip negatives to zero then normalise to sum to one."""
    clipped = np.maximum(np.asarray(raw, dtype=np.float64), 0.0)
    total = clipped.sum()
    if total <= 0.0:
        return clipped  # all-zero weights: the batch is skipped by callers
    return clipped / total


class ExampleReweighter:
    """Compute per-example weights for synthetic batches.

    Parameters
    ----------
    model:
        Any :class:`repro.nn.Module`; the reweighter only needs
        ``zero_grad`` / ``gradient_vector`` / ``flatten_parameters`` /
        ``assign_flat_parameters`` / ``train``.
    loss_fn:
        Callable ``loss_fn(pairs, reduction=...)`` returning a scalar Tensor
        for ``reduction="sum"``/``"mean"`` and a vector Tensor of per-example
        losses for ``reduction="none"``.  When the callable also exposes
        ``prepare(pairs)`` (see :mod:`repro.training.tasks`), the probe batch
        is tokenized once and shared between the base and shifted JVP
        evaluations.
    config:
        Meta-learning hyper-parameters (inner learning rate, JVP epsilon...).
    """

    def __init__(self, model, loss_fn: LossFunction, config: Optional[MetaConfig] = None) -> None:
        self.model = model
        self.loss_fn = loss_fn
        self.config = config or MetaConfig()

    # ------------------------------------------------------------------
    # Probe helpers
    # ------------------------------------------------------------------
    def _prepare_probe(self, pairs: Sequence[EntityMentionPair]) -> Callable[..., object]:
        """A closure evaluating the per-example losses at the current params.

        Prefers the loss function's ``prepare`` hook (tokenize once, evaluate
        many times); falls back to calling the loss function directly.
        """
        prepare = getattr(self.loss_fn, "prepare", None)
        if prepare is not None:
            return prepare(pairs)
        return lambda reduction="none": self.loss_fn(pairs, reduction=reduction)

    @contextmanager
    def _probe_mode(self) -> Iterator[None]:
        """Run probes in eval mode; restore the previous mode afterwards.

        Dropout draws an independent mask per forward pass, so probe losses
        evaluated in training mode are noisy point estimates, and the JVP
        finite difference would divide that noise by ε.  Evaluation mode
        makes every probe deterministic at the current parameters.
        """
        was_training = self.model.training
        self.model.eval()
        try:
            yield
        finally:
            self.model.train(was_training)

    # ------------------------------------------------------------------
    # Gradient helpers
    # ------------------------------------------------------------------
    def seed_gradient(self, seed_pairs: Sequence[EntityMentionPair]) -> np.ndarray:
        """∇_φ of the mean seed loss at the current parameters."""
        if not seed_pairs:
            raise ValueError("seed batch must not be empty")
        with self._probe_mode():
            self.model.zero_grad()
            loss = self.loss_fn(seed_pairs, reduction="mean")
            loss.backward()
            gradient = self.model.gradient_vector()
            self.model.zero_grad()
        return gradient

    def per_example_gradient_dots(
        self,
        synthetic_pairs: Sequence[EntityMentionPair],
        seed_gradient: np.ndarray,
    ) -> np.ndarray:
        """Exact ⟨∇_φ l_j, g_seed⟩ for every synthetic example: the test oracle.

        One forward builds the whole batch's per-example loss vector (so an
        in-batch loss sees the same negatives it trains with) and each
        example's gradient is read off that shared graph with a
        one-hot-seeded backward — ``n`` backwards where
        :meth:`jvp_gradient_dots` needs two forwards.
        """
        dots = np.zeros(len(synthetic_pairs))
        with self._probe_mode():
            losses = self._prepare_probe(synthetic_pairs)(reduction="none")
            for position, one_hot in enumerate(np.eye(len(dots))):
                self.model.zero_grad()
                losses.backward(one_hot)
                dots[position] = float(self.model.gradient_vector() @ seed_gradient)
            self.model.zero_grad()
        return dots

    def jvp_gradient_dots(
        self,
        synthetic_pairs: Sequence[EntityMentionPair],
        seed_gradient: np.ndarray,
    ) -> np.ndarray:
        """Finite-difference estimate of ⟨∇_φ l_j, g_seed⟩ for every example.

        ``‖g‖ · (l_j(φ + ε·g/‖g‖) - l_j(φ)) / ε ≈ ⟨∇_φ l_j, g⟩`` — one extra
        batched forward pass evaluates every example's directional derivative
        at once.  The perturbation is taken along the *unit* seed direction so
        the step stays inside the linear regime regardless of the seed
        gradient's magnitude, and the quotient is rescaled by ``‖g‖``
        afterwards.  Both evaluations run in eval mode (identical, dropout
        free) and graph-free.
        """
        epsilon = self.config.jvp_epsilon
        gradient_norm = float(np.linalg.norm(seed_gradient))
        if gradient_norm == 0.0:
            return np.zeros(len(synthetic_pairs))
        direction = seed_gradient / gradient_norm
        probe = self._prepare_probe(synthetic_pairs)
        original = self.model.flatten_parameters()
        with self._probe_mode():
            try:
                with no_grad():
                    base = np.array(probe(reduction="none").data, dtype=np.float64, copy=True)
                self.model.assign_flat_parameters(original + epsilon * direction)
                with no_grad():
                    shifted = np.array(probe(reduction="none").data, dtype=np.float64, copy=True)
            finally:
                self.model.assign_flat_parameters(original)
        return (shifted - base) * (gradient_norm / epsilon)

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def compute_weights(
        self,
        synthetic_pairs: Sequence[EntityMentionPair],
        seed_pairs: Sequence[EntityMentionPair],
    ) -> ReweightResult:
        """Weights for one synthetic batch given one seed batch (Alg. 1, lines 2–9)."""
        if not synthetic_pairs:
            raise ValueError("synthetic batch must not be empty")
        seed_grad = self.seed_gradient(seed_pairs)
        dots = self.jvp_gradient_dots(synthetic_pairs, seed_grad)
        # Eq. 12: ∂L_seed/∂w_j |_{w=0} = -α ⟨g_j, g_seed⟩; the weight is the
        # *negative* of that derivative, i.e. +α ⟨g_j, g_seed⟩.
        raw = self.config.inner_learning_rate * dots
        weights = normalize_weights(raw)
        return ReweightResult(
            weights=weights,
            raw_gradients=raw,
            seed_gradient_norm=float(np.linalg.norm(seed_grad)),
        )

    # ------------------------------------------------------------------
    # Analysis helper (Figure 4)
    # ------------------------------------------------------------------
    def selection_ratio_by_source(
        self,
        synthetic_pairs: Sequence[EntityMentionPair],
        seed_pairs: Sequence[EntityMentionPair],
        batch_size: Optional[int] = None,
        seed: int = 0,
    ) -> dict:
        """Fraction of examples with positive weight, grouped by pair ``source``.

        This is the quantity plotted in Figure 4: normal synthetic data should
        be selected far more often than deliberately corrupted data.
        """
        batch_size = batch_size or self.config.meta_batch_size
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(synthetic_pairs))
        selected: dict = {}
        totals: dict = {}
        for start in range(0, len(order), batch_size):
            batch = [synthetic_pairs[i] for i in order[start:start + batch_size]]
            if len(batch) < 2:
                continue
            result = self.compute_weights(batch, seed_pairs)
            for pair, weight in zip(batch, result.weights):
                totals[pair.source] = totals.get(pair.source, 0) + 1
                if weight > 0:
                    selected[pair.source] = selected.get(pair.source, 0) + 1
        return {
            source: selected.get(source, 0) / count
            for source, count in sorted(totals.items())
        }
