"""DL4EL-style denoising baseline (Le & Titov, 2019).

The original method assumes a known noise ratio and, inside each batch, lets
the model learn which examples to trust by pushing the posterior "is this
example clean?" distribution towards that prior (via a KL term).  We keep the
essential mechanism in a compact form: every batch computes per-example
losses, converts them into a clean-probability distribution (low loss → more
likely clean), keeps the likeliest-clean ``1 - noise_ratio`` fraction at full
weight, and trains on the re-weighted loss.

The paper applies DL4EL only to the bi-encoder (the cross-encoder's batch size
is too small for in-batch denoising) and finds it does not help much because
the synthetic data contains no superficially detectable noise; the same
behaviour is reproduced here.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..kb.entity import EntityMentionPair
from ..utils.config import BiEncoderConfig
from ..utils.logging import MetricHistory
from .biencoder import BiEncoder


class DL4ELTrainer:
    """Noise-aware bi-encoder training with in-batch example selection."""

    def __init__(
        self,
        model: BiEncoder,
        config: Optional[BiEncoderConfig] = None,
        noise_ratio: float = 0.3,
        temperature: float = 1.0,
    ) -> None:
        if not 0.0 <= noise_ratio < 1.0:
            raise ValueError("noise_ratio must lie in [0, 1)")
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.model = model
        self.config = config or model.config
        self.noise_ratio = noise_ratio
        self.temperature = temperature

    # ------------------------------------------------------------------
    def _denoising_weights(self, per_example_losses: np.ndarray) -> np.ndarray:
        """Convert losses into weights that keep ~(1 - noise_ratio) of the batch.

        The lowest-loss ``1 - noise_ratio`` fraction receives weight 1, the
        rest is strongly down-weighted.  (The training objective divides by
        the weight sum, so the scale of the weights does not matter.)
        """
        losses = np.asarray(per_example_losses, dtype=np.float64)
        if losses.size == 0:
            return losses
        clean_scores = np.exp(-(losses - losses.min()) / self.temperature)
        keep = max(1, int(round((1.0 - self.noise_ratio) * losses.size)))
        threshold = np.sort(clean_scores)[::-1][keep - 1]
        return np.where(clean_scores >= threshold, 1.0, clean_scores / (threshold + 1e-12))

    # ------------------------------------------------------------------
    def fit(
        self,
        pairs: Sequence[EntityMentionPair],
        epochs: Optional[int] = None,
        seed: int = 0,
    ) -> MetricHistory:
        """Train the bi-encoder with the denoising reweighting."""
        # Imported here: repro.training's task adapters import repro.linking.
        from ..training import BiEncoderMetaTask, TrainingEngine

        task = BiEncoderMetaTask(self.model)
        self.engine = TrainingEngine.for_stage(
            self.model, task, self.config,
            weighting=lambda batch: self._denoising_weights(task.prepare(batch)(reduction="none").data),
        )
        return self.engine.fit(pairs, epochs=epochs, seed=seed)
