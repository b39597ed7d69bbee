"""Core neural layers: Linear, Embedding, LayerNorm, Dropout, feed-forward."""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor


class Linear(Module):
    """Affine transformation ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng), name="weight")
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features})"


class Embedding(Module):
    """Trainable lookup table mapping integer ids to dense vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
        padding_idx: Optional[int] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        weight = init.normal((num_embeddings, embedding_dim), rng, std=0.02)
        if padding_idx is not None:
            weight[padding_idx] = 0.0
        self.weight = Parameter(weight, name="weight")

    def check_indices(self, indices: np.ndarray) -> None:
        """Raise ``IndexError`` unless every index addresses a table row."""
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={indices.min()}, max={indices.max()}"
            )

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        self.check_indices(indices)
        return F.embedding(self.weight, indices)

    def __repr__(self) -> str:
        return f"Embedding(num={self.num_embeddings}, dim={self.embedding_dim})"


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(init.ones((normalized_shape,)), name="weight")
        self.bias = Parameter(init.zeros((normalized_shape,)), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        return x.standardize(self.eps) * self.weight + self.bias

    def __repr__(self) -> str:
        return f"LayerNorm(dim={self.normalized_shape})"


class Dropout(Module):
    """Inverted dropout layer; inert in eval mode."""

    def __init__(self, rate: float = 0.1, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        self.rate = rate
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def forward(self, x: Tensor, keep: Optional[np.ndarray] = None) -> Tensor:
        """``keep``, when given, is the multiplier :meth:`keep_scale` drew for ``x``."""
        return F.dropout(x, self.rate, training=self.training, rng=self._rng, keep=keep)

    def keep_scale(self, shape) -> Optional[np.ndarray]:
        """The multiplier :meth:`forward` would draw for a ``shape`` array; ``None`` when inert."""
        if not self.training or self.rate <= 0.0:
            return None
        return F.keep_scale(shape, self.rate, self._rng)

    def __repr__(self) -> str:
        return f"Dropout(rate={self.rate})"


class FeedForward(Module):
    """Position-wise feed-forward block (Linear → GELU → Linear)."""

    def __init__(
        self,
        model_dim: int,
        hidden_dim: int,
        dropout: float = 0.1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.expand = Linear(model_dim, hidden_dim, rng=rng)
        self.project = Linear(hidden_dim, model_dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, keep: Optional[np.ndarray] = None) -> Tensor:
        return self.dropout(self.project(F.gelu(self.expand(x))), keep=keep)
