"""Multi-head attention used by the encoder and decoder stacks."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from . import functional as F
from .layers import Dropout, Linear
from .module import Module
from .tensor import Tensor


@lru_cache(maxsize=512)
def _causal_bias(query_len: int, key_len: int, offset: int) -> np.ndarray:
    """Memoized additive causal bias: ``-1e9`` where key ``j > offset + i``.

    ``offset`` is the absolute position of the first query row, so the same
    helper serves full forwards (``offset=0``, square) and incremental chunks
    (queries at positions ``[offset, offset + query_len)`` over ``key_len``
    cached keys).  Every decoder layer re-requests the same shapes each
    forward, so the table is built once per shape instead of per
    layer per step.  The returned array is shared — marked read-only.
    """
    bias = np.where(
        np.triu(np.ones((query_len, key_len), dtype=bool), k=1 + offset), -1e9, 0.0
    )[None, None, :, :]
    bias.flags.writeable = False
    return bias


class KVCache:
    """Preallocated per-layer K/V buffers for incremental self-attention.

    The buffers are shaped ``(batch, heads, max_length, head_dim)`` and grow
    by in-place writes: each decode step appends the new token's projected
    key/value at ``length`` instead of re-projecting the whole prefix.
    """

    def __init__(self, batch: int, num_heads: int, max_length: int, head_dim: int) -> None:
        self.k = np.zeros((batch, num_heads, max_length, head_dim))
        self.v = np.zeros_like(self.k)
        self.length = 0

    @property
    def batch(self) -> int:
        return self.k.shape[0]

    @property
    def max_length(self) -> int:
        return self.k.shape[2]

    def append(self, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Write the new tokens' K/V at the end of the cached prefix."""
        new_tokens = k_new.shape[2]
        if self.length + new_tokens > self.max_length:
            raise ValueError(
                f"KV cache overflow: {self.length} + {new_tokens} > {self.max_length}"
            )
        self.k[:, :, self.length:self.length + new_tokens] = k_new
        self.v[:, :, self.length:self.length + new_tokens] = v_new
        self.length += new_tokens

    def select_rows(self, indices: np.ndarray) -> None:
        """Keep only the given batch rows (drops finished sequences)."""
        self.k = self.k[indices]
        self.v = self.v[indices]


class MultiHeadAttention(Module):
    """Scaled dot-product attention with multiple heads.

    Supports self-attention (``query is key is value``), cross-attention
    (decoder attending to encoder states) and both padding and causal masks.
    For incremental decoding, :meth:`forward_step` attends over a
    :class:`KVCache` and :meth:`forward_cross` reuses K/V projected once from
    the encoder memory via :meth:`project_memory`.
    """

    def __init__(
        self,
        model_dim: int,
        num_heads: int,
        dropout: float = 0.1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if model_dim % num_heads != 0:
            raise ValueError(f"model_dim {model_dim} not divisible by num_heads {num_heads}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.model_dim = model_dim
        self.num_heads = num_heads
        self.head_dim = model_dim // num_heads
        self.query_proj = Linear(model_dim, model_dim, rng=rng)
        self.key_proj = Linear(model_dim, model_dim, rng=rng)
        self.value_proj = Linear(model_dim, model_dim, rng=rng)
        self.out_proj = Linear(model_dim, model_dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def _split_heads(self, x: Tensor) -> Tensor:
        batch, length, _ = x.shape
        return x.reshape(batch, length, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: Tensor) -> Tensor:
        batch, heads, length, head_dim = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, length, heads * head_dim)

    def _attend(
        self, q: Tensor, k, v, bias: Optional[np.ndarray], keep: Optional[np.ndarray] = None
    ) -> Tensor:
        """Score / softmax / weight-sum / merge / output-project.

        ``keep`` is the map's dropout multiplier when drawn beforehand;
        without one, :attr:`dropout` draws it here.
        """
        # The additive -1e9 bias broadcasts over the head/query axes, so no
        # (batch, heads, query, key) mask is ever materialised.
        scores = q.matmul(k)
        if keep is None:
            keep = self.dropout.keep_scale(scores.shape)
        weights = F.attention_weights(scores, 1.0 / math.sqrt(self.head_dim), bias, keep)
        attended = weights.matmul(v)
        return self.out_proj(self._merge_heads(attended))

    def forward(
        self,
        query: Tensor,
        key: Optional[Tensor] = None,
        value: Optional[Tensor] = None,
        key_padding_mask: Optional[np.ndarray] = None,
        causal: bool = False,
        keep: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Compute attention.

        Parameters
        ----------
        query, key, value:
            Tensors of shape ``(batch, length, model_dim)``.  ``key`` and
            ``value`` default to ``query`` (self-attention).
        key_padding_mask:
            Boolean array ``(batch, key_length)``; True marks padding
            positions that must not be attended to.
        causal:
            If True, position *i* may only attend to positions ``<= i``.
        keep:
            The attention map's dropout multiplier ``(batch, heads, query,
            key)``, drawn beforehand by ``self.dropout.keep_scale``; drawn
            here when omitted.
        """
        key = query if key is None else key
        value = key if value is None else value

        q = self._split_heads(self.query_proj(query))
        k = self._split_heads(self.key_proj(key))
        v = self._split_heads(self.value_proj(value))

        bias = self._build_bias(
            batch=query.shape[0],
            query_len=query.shape[1],
            key_len=key.shape[1],
            key_padding_mask=key_padding_mask,
            causal=causal,
        )
        return self._attend(q, k.transpose(0, 1, 3, 2), v, bias, keep)

    # ------------------------------------------------------------------
    # Incremental decoding
    # ------------------------------------------------------------------
    def init_cache(self, batch: int, max_length: int) -> KVCache:
        """Allocate a :class:`KVCache` sized for this attention module."""
        return KVCache(batch, self.num_heads, max_length, self.head_dim)

    def project_memory(self, memory: Tensor) -> Tuple[np.ndarray, np.ndarray]:
        """Split-head K/V of the encoder memory, projected **once** per decode.

        Cross-attention K/V depend only on the encoder output, so computing
        them here and replaying them through :meth:`forward_cross` removes
        two ``(batch, source_len, model_dim)`` projections from every step.
        """
        k = self._split_heads(self.key_proj(memory)).data
        v = self._split_heads(self.value_proj(memory)).data
        return k, v

    def forward_step(self, query: Tensor, cache: KVCache) -> Tensor:
        """Self-attention of new tokens over the cached prefix plus themselves.

        ``query`` holds the new tokens only — ``(batch, new_tokens, dim)``;
        their K/V are appended to ``cache`` in place.  A causal bias is only
        needed when more than one token arrives at once (prefill): a single-
        token query attends to the entire (strictly past) cache.
        """
        new_tokens = query.shape[1]
        q = self._split_heads(self.query_proj(query))
        cache.append(
            self._split_heads(self.key_proj(query)).data,
            self._split_heads(self.value_proj(query)).data,
        )
        k = cache.k[:, :, :cache.length]
        v = cache.v[:, :, :cache.length]
        bias = None
        if new_tokens > 1:
            bias = _causal_bias(new_tokens, cache.length, cache.length - new_tokens)
        return self._attend(q, np.swapaxes(k, -1, -2), v, bias)

    def forward_cross(
        self,
        query: Tensor,
        memory_k: np.ndarray,
        memory_v: np.ndarray,
        memory_bias: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Cross-attention against K/V precomputed by :meth:`project_memory`.

        ``memory_bias`` is the additive padding bias ``(batch, 1, 1, source)``
        built once per decode from the memory padding mask.
        """
        q = self._split_heads(self.query_proj(query))
        return self._attend(q, np.swapaxes(memory_k, -1, -2), memory_v, memory_bias)

    # ------------------------------------------------------------------
    # Masks
    # ------------------------------------------------------------------
    @staticmethod
    def padding_bias(key_padding_mask: np.ndarray) -> np.ndarray:
        """Additive ``(batch, 1, 1, key_len)`` bias from a boolean pad mask."""
        padding = np.asarray(key_padding_mask, dtype=bool)
        return np.where(padding, -1e9, 0.0)[:, None, None, :]

    def _build_bias(
        self,
        batch: int,
        query_len: int,
        key_len: int,
        key_padding_mask: Optional[np.ndarray],
        causal: bool,
    ) -> Optional[np.ndarray]:
        bias: Optional[np.ndarray] = None
        if key_padding_mask is not None:
            padding = np.asarray(key_padding_mask, dtype=bool)
            if padding.shape != (batch, key_len):
                raise ValueError(
                    f"key_padding_mask shape {padding.shape} != {(batch, key_len)}"
                )
            bias = self.padding_bias(padding)
        if causal:
            causal_bias = _causal_bias(query_len, key_len, 0)
            bias = causal_bias if bias is None else bias + causal_bias
        return bias
