"""Transformer encoder / decoder stacks.

The encoders stand in for BERT in the BLINK-style bi-encoder and
cross-encoder, and the encoder-decoder pair stands in for T5 in the mention
rewriter.

:meth:`TransformerEncoder.encode` is the arithmetic of
:mod:`repro.nn.inference`, with or without a graph: it never runs a row past
its last real token, and with gradients enabled it is one graph node whose
backward is written out.  In train mode its dropout masks are drawn at the
padded shape in :meth:`TransformerEncoder.forward`'s order, so the padded
forward and the chunked one train along the same trajectory.  ``forward``,
the decoder and the layers below stay ``Tensor`` modules: the seq2seq
rewriter trains through them, and they are the oracle ``encode`` is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import functional as F
from . import init
from .attention import KVCache, MultiHeadAttention
from .inference import Tape, encode_backward, pooled_encode
from .layers import Dropout, Embedding, FeedForward, LayerNorm, Linear
from .module import Module, ModuleList, Parameter
from .tensor import Tensor, is_grad_enabled

#: An encoder layer's dropout multipliers: attention map, residual, feed-forward.
Keeps = Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]


class PositionalEmbedding(Module):
    """Learned absolute positional embeddings.

    ``forward(length, offset)`` returns the rows for positions
    ``[offset, offset + length)`` — the offset is how incremental decoding
    addresses the position of a single new token.  Inference forwards slice
    the weight table directly (no index array, no gather copy); the
    gradient-tracked path keeps the :func:`repro.nn.functional.embedding`
    gather with a cached position-id table instead of rebuilding
    ``np.arange`` on every layer-stack invocation.
    """

    def __init__(
        self,
        max_length: int,
        model_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.max_length = max_length
        self.weight = Parameter(init.normal((max_length, model_dim), rng, std=0.02), name="weight")
        self._position_ids = np.arange(max_length, dtype=np.int64)

    def rows(self, length: int, offset: int = 0) -> np.ndarray:
        """The table rows for ``[offset, offset + length)`` as a raw array: a
        slice of the table, outside any graph."""
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        if offset + length > self.max_length:
            raise ValueError(
                f"positions [{offset}, {offset + length}) exceed max_length {self.max_length}"
            )
        return self.weight.data[offset:offset + length]

    def forward(self, length: int, offset: int = 0) -> Tensor:
        rows = self.rows(length, offset)
        if not (is_grad_enabled() and self.weight.requires_grad):
            return Tensor(rows)
        return F.embedding(self.weight, self._position_ids[offset:offset + length])


class TransformerEncoderLayer(Module):
    """Pre-norm transformer encoder block (self-attention + feed-forward)."""

    def __init__(
        self,
        model_dim: int,
        num_heads: int,
        hidden_dim: int,
        dropout: float = 0.1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.self_attention = MultiHeadAttention(model_dim, num_heads, dropout, rng=rng)
        self.feed_forward = FeedForward(model_dim, hidden_dim, dropout, rng=rng)
        self.norm_attention = LayerNorm(model_dim)
        self.norm_feed_forward = LayerNorm(model_dim)
        self.dropout = Dropout(dropout, rng=rng)

    def keep_scales(self, rows: int, width: int) -> Keeps:
        """The dropout multipliers :meth:`forward` draws on a ``(rows, width)``
        input, in its order: attention map, residual, feed-forward (``None``
        where dropout is inert)."""
        heads, dim = self.self_attention.num_heads, self.self_attention.model_dim
        return (
            self.self_attention.dropout.keep_scale((rows, heads, width, width)),
            self.dropout.keep_scale((rows, width, dim)),
            self.feed_forward.dropout.keep_scale((rows, width, dim)),
        )

    def forward(self, x: Tensor, padding_mask: Optional[np.ndarray] = None) -> Tensor:
        attended = self.self_attention(self.norm_attention(x), key_padding_mask=padding_mask)
        x = x + self.dropout(attended)
        x = x + self.feed_forward(self.norm_feed_forward(x))
        return x


class TransformerEncoder(Module):
    """Token embedding + positional embedding + a stack of encoder layers.

    ``forward`` returns the full sequence of hidden states at the padded width
    (what the seq2seq encoder reads); ``encode`` returns a pooled
    representation (mean over non-padding positions), which is what the
    bi-encoder uses as the mention / entity vector, and skips padding: rows
    run in length-ordered chunks, each trimmed to its longest row.
    """

    def __init__(
        self,
        vocab_size: int,
        model_dim: int = 64,
        num_layers: int = 2,
        num_heads: int = 4,
        hidden_dim: int = 128,
        max_length: int = 128,
        dropout: float = 0.1,
        padding_idx: int = 0,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size
        self.model_dim = model_dim
        self.padding_idx = padding_idx
        self.token_embedding = Embedding(vocab_size, model_dim, rng=rng, padding_idx=padding_idx)
        self.position_embedding = PositionalEmbedding(max_length, model_dim, rng=rng)
        self.layers = ModuleList(
            [
                TransformerEncoderLayer(model_dim, num_heads, hidden_dim, dropout, rng=rng)
                for _ in range(num_layers)
            ]
        )
        self.final_norm = LayerNorm(model_dim)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, token_ids: np.ndarray) -> Tensor:
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        padding_mask = token_ids == self.padding_idx
        hidden = self.token_embedding(token_ids) + self.position_embedding(token_ids.shape[1])
        hidden = self.dropout(hidden)
        for layer in self.layers:
            hidden = layer(hidden, padding_mask=padding_mask)
        return self.final_norm(hidden)

    def encode(self, token_ids: np.ndarray) -> Tensor:
        """Return a pooled (mean over real tokens) representation per sequence.

        Runs :func:`repro.nn.inference.pooled_encode`, the chunked forward that
        equals :meth:`forward` followed by a masked mean up to rounding; a row
        with no real token pools to a constant zero vector.  With gradients
        enabled the result is **one** graph node whose parents are this
        encoder's parameters: the forward records its activations and the
        node's backward is :func:`~repro.nn.inference.encode_backward`.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        keeps = None
        if self.training:
            rows, width = token_ids.shape
            self.position_embedding.rows(width)  # the padded width must fit, as in forward()
            # Every dropout site draws once at the padded shape, in forward()'s
            # order, before any chunk runs, so a seeded generator follows the
            # trajectory forward() would; each chunk multiplies by its own slice.
            keeps = (
                self.dropout.keep_scale((rows, width, self.model_dim)),
                [layer.keep_scales(rows, width) for layer in self.layers],
            )
        parameters = ()
        if is_grad_enabled():
            parameters = tuple(p for p in self.parameters() if p.requires_grad)
        if not parameters:
            return Tensor(pooled_encode(self, token_ids, keeps))
        tape: Tape = []
        pooled = pooled_encode(self, token_ids, keeps, tape)

        def backward(grad: np.ndarray) -> None:
            gradients = encode_backward(self, tape, grad)
            for parameter in parameters:
                if id(parameter) in gradients:
                    parameter._accumulate(gradients[id(parameter)])

        return Tensor(pooled, requires_grad=True, _parents=parameters, _backward=backward)


@dataclass
class LayerDecoderState:
    """Per-layer incremental state: self-attention K/V cache plus the
    cross-attention K/V projected once from the encoder memory."""

    self_cache: KVCache
    cross_k: np.ndarray
    cross_v: np.ndarray

    def select_rows(self, indices: np.ndarray) -> None:
        self.self_cache.select_rows(indices)
        self.cross_k = self.cross_k[indices]
        self.cross_v = self.cross_v[indices]


@dataclass
class DecoderState:
    """Incremental decoding state threaded through a :class:`TransformerDecoder`.

    Create one with :meth:`TransformerDecoder.init_state`, then feed token
    chunks to :meth:`TransformerDecoder.forward_step` — a multi-token prefill
    first, single-token steps after.  ``length`` is the number of tokens
    already consumed (the positional offset of the next chunk).
    ``memory_bias`` is the additive cross-attention padding bias shared by
    all layers.  :meth:`select_rows` drops finished sequences from every
    buffer so later steps only pay for still-active rows.
    """

    layers: List[LayerDecoderState]
    memory_bias: Optional[np.ndarray]
    length: int = 0

    @property
    def batch(self) -> int:
        return self.layers[0].self_cache.batch

    def select_rows(self, indices: np.ndarray) -> None:
        """Keep only the given batch rows (boolean or integer index array)."""
        for layer in self.layers:
            layer.select_rows(indices)
        if self.memory_bias is not None:
            self.memory_bias = self.memory_bias[indices]


class TransformerDecoderLayer(Module):
    """Pre-norm decoder block: causal self-attention, cross-attention, FFN."""

    def __init__(
        self,
        model_dim: int,
        num_heads: int,
        hidden_dim: int,
        dropout: float = 0.1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.self_attention = MultiHeadAttention(model_dim, num_heads, dropout, rng=rng)
        self.cross_attention = MultiHeadAttention(model_dim, num_heads, dropout, rng=rng)
        self.feed_forward = FeedForward(model_dim, hidden_dim, dropout, rng=rng)
        self.norm_self = LayerNorm(model_dim)
        self.norm_cross = LayerNorm(model_dim)
        self.norm_feed_forward = LayerNorm(model_dim)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(
        self,
        x: Tensor,
        memory: Tensor,
        memory_padding_mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        attended = self.self_attention(self.norm_self(x), causal=True)
        x = x + self.dropout(attended)
        crossed = self.cross_attention(
            self.norm_cross(x), key=memory, value=memory, key_padding_mask=memory_padding_mask
        )
        x = x + self.dropout(crossed)
        x = x + self.feed_forward(self.norm_feed_forward(x))
        return x

    def init_state(self, memory: Tensor, max_length: int) -> LayerDecoderState:
        """Allocate this layer's K/V cache and project the memory K/V once."""
        cross_k, cross_v = self.cross_attention.project_memory(memory)
        return LayerDecoderState(
            self_cache=self.self_attention.init_cache(memory.shape[0], max_length),
            cross_k=cross_k,
            cross_v=cross_v,
        )

    def forward_step(
        self,
        x: Tensor,
        state: LayerDecoderState,
        memory_bias: Optional[np.ndarray],
    ) -> Tensor:
        """One incremental chunk: new tokens only, prefix read from ``state``."""
        attended = self.self_attention.forward_step(self.norm_self(x), state.self_cache)
        x = x + self.dropout(attended)
        crossed = self.cross_attention.forward_cross(
            self.norm_cross(x), state.cross_k, state.cross_v, memory_bias
        )
        x = x + self.dropout(crossed)
        x = x + self.feed_forward(self.norm_feed_forward(x))
        return x


class TransformerDecoder(Module):
    """Decoder stack with a tied output projection to vocabulary logits."""

    def __init__(
        self,
        vocab_size: int,
        model_dim: int = 64,
        num_layers: int = 2,
        num_heads: int = 4,
        hidden_dim: int = 128,
        max_length: int = 64,
        dropout: float = 0.1,
        padding_idx: int = 0,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size
        self.padding_idx = padding_idx
        self.token_embedding = Embedding(vocab_size, model_dim, rng=rng, padding_idx=padding_idx)
        self.position_embedding = PositionalEmbedding(max_length, model_dim, rng=rng)
        self.layers = ModuleList(
            [
                TransformerDecoderLayer(model_dim, num_heads, hidden_dim, dropout, rng=rng)
                for _ in range(num_layers)
            ]
        )
        self.final_norm = LayerNorm(model_dim)
        self.output_proj = Linear(model_dim, vocab_size, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(
        self,
        token_ids: np.ndarray,
        memory: Tensor,
        memory_padding_mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        hidden = self.token_embedding(token_ids) + self.position_embedding(token_ids.shape[1])
        hidden = self.dropout(hidden)
        for layer in self.layers:
            hidden = layer(hidden, memory, memory_padding_mask=memory_padding_mask)
        hidden = self.final_norm(hidden)
        return self.output_proj(hidden)

    # ------------------------------------------------------------------
    # Incremental decoding
    # ------------------------------------------------------------------
    def init_state(
        self,
        memory: Tensor,
        memory_padding_mask: Optional[np.ndarray] = None,
        max_length: Optional[int] = None,
    ) -> DecoderState:
        """Prepare an incremental :class:`DecoderState` for ``memory``.

        Projects every layer's cross-attention K/V from the encoder output
        once, builds the shared memory padding bias, and preallocates the
        self-attention caches for up to ``max_length`` tokens (defaults to
        the positional-embedding capacity).
        """
        if max_length is None:
            max_length = self.position_embedding.max_length
        max_length = min(max_length, self.position_embedding.max_length)
        memory_bias = None
        if memory_padding_mask is not None:
            memory_bias = MultiHeadAttention.padding_bias(memory_padding_mask)
        return DecoderState(
            layers=[layer.init_state(memory, max_length) for layer in self.layers],
            memory_bias=memory_bias,
        )

    def forward_step(self, token_ids: np.ndarray, state: DecoderState) -> Tensor:
        """Logits for a chunk of new tokens, advancing ``state`` in place.

        ``token_ids`` is ``(batch, new_tokens)`` — the prefill chunk on the
        first call, a single column on subsequent steps.  Positions are
        offset by the tokens already consumed; the causal bias for the
        1-token case is unnecessary (the query attends to a strictly-past
        cache) and is handled inside the attention step for prefill chunks.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        new_tokens = token_ids.shape[1]
        hidden = self.token_embedding(token_ids) + self.position_embedding(
            new_tokens, offset=state.length
        )
        hidden = self.dropout(hidden)
        for layer, layer_state in zip(self.layers, state.layers):
            hidden = layer.forward_step(hidden, layer_state, state.memory_bias)
        state.length += new_tokens
        hidden = self.final_norm(hidden)
        return self.output_proj(hidden)
