"""The graph-free encoder forward that inference takes.

:meth:`TransformerEncoder.encode` routes here whenever gradients are disabled
and the module is in eval mode.  Both bodies of ``encode`` run the chunk plan
of :func:`plan_chunks`: rows are ordered by real length and processed in
fixed-size chunks, each trimmed to its own longest row, so padding never
reaches a matmul or the ``L x L`` attention scores.  The graph body (training,
or dropout active) runs each chunk through the :class:`~repro.nn.tensor.Tensor`
modules; this one is their arithmetic written on raw numpy arrays, where every
element-wise step updates a buffer in place instead of allocating an array
and a ``Tensor`` node per op.  ``tests/nn/test_inference_forward.py`` holds
the two together (they agree to rounding: sums run in another order, the
``1/sqrt(head_dim)`` scale is applied to the queries and the softmax
denominator to the weighted sum).

Every buffer lives in a :class:`_Workspace` local to one call.  Thread
replicas share one encoder (``EntityLinkingPipeline.clone()``), so two threads
run this on the same module at the same time: nothing may be kept on the
module or at module level.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from .attention import MultiHeadAttention
from .layers import LayerNorm, Linear

if TYPE_CHECKING:
    from .transformer import TransformerEncoder, TransformerEncoderLayer

#: Rows per chunk of both ``encode`` bodies, chosen by measurement on the
#: serving cross-encoder (128 rows of <= 72 tokens, 2 heads, float64): at 8-16
#: rows a chunk's score buffer (16 x 2 x 72 x 72 doubles, 1.3 MB) stays
#: cache-resident and the ~0.25 ms of numpy call overhead a chunk costs is
#: amortised; 32 rows measure 15 % slower or worse, 128 rows 1.8x.
_CHUNK_ROWS = 16

_GELU_SCALE = math.sqrt(2.0 / math.pi)


class _Workspace:
    """One call's scratch memory: a flat array per name, handed out as a
    contiguous view of the requested shape.  Chunks run widest first, so each
    name is allocated once and later chunks reuse the front of it."""

    def __init__(self) -> None:
        self._flat: Dict[str, np.ndarray] = {}

    def __call__(self, name: str, *shape: int) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(shape)


def _layer_norm(x: np.ndarray, norm: LayerNorm, out: np.ndarray) -> np.ndarray:
    """``out = standardize(x) * weight + bias`` over the last axis."""
    mean = np.einsum("...d->...", x)[..., None]
    mean /= x.shape[-1]
    np.subtract(x, mean, out=out)
    deviation = np.einsum("...d,...d->...", out, out)[..., None]
    deviation /= x.shape[-1]
    deviation += norm.eps
    np.sqrt(deviation, out=deviation)
    out /= deviation
    out *= norm.weight.data
    out += norm.bias.data
    return out


def _linear(x: np.ndarray, linear: Linear, out: np.ndarray) -> np.ndarray:
    # x stays 3-D: one small gemm per row, which OpenBLAS runs single-threaded.
    np.matmul(x, linear.weight.data.T, out=out)
    out += linear.bias.data
    return out


def _gelu(x: np.ndarray, inner: np.ndarray) -> None:
    """``Tensor.gelu`` in place, in its order of operations; ``inner`` is scratch."""
    np.multiply(x, x, out=inner)
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= _GELU_SCALE
    np.tanh(inner, out=inner)
    inner += 1.0
    x *= 0.5
    x *= inner


def _encoder_layer(
    hidden: np.ndarray, bias: np.ndarray, layer: "TransformerEncoderLayer", work: _Workspace
) -> None:
    """One pre-norm block, accumulated into ``hidden`` (rows, length, dim)."""
    attention, feed_forward = layer.self_attention, layer.feed_forward
    rows, length, _ = hidden.shape
    split = (rows, length, attention.num_heads, attention.head_dim)
    normed = _layer_norm(hidden, layer.norm_attention, work("normed", *hidden.shape))
    q = _linear(normed, attention.query_proj, work("q", *hidden.shape))
    q *= 1.0 / math.sqrt(attention.head_dim)
    k = _linear(normed, attention.key_proj, work("k", *hidden.shape))
    v = _linear(normed, attention.value_proj, work("v", *hidden.shape))
    q, k, v = (x.reshape(split).transpose(0, 2, 1, 3) for x in (q, k, v))
    scores = work("scores", rows, attention.num_heads, length, length)
    np.matmul(q, k.transpose(0, 1, 3, 2), out=scores)
    scores += bias
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    merged = work("merged", *hidden.shape)
    attended = merged.reshape(split).transpose(0, 2, 1, 3)
    np.matmul(scores, v, out=attended)
    attended /= scores.sum(axis=-1, keepdims=True)
    hidden += _linear(merged, attention.out_proj, work("update", *hidden.shape))

    normed = _layer_norm(hidden, layer.norm_feed_forward, normed)
    wide_shape = (rows, length, feed_forward.expand.out_features)
    wide = _linear(normed, feed_forward.expand, work("wide", *wide_shape))
    _gelu(wide, work("wide_scratch", *wide_shape))
    hidden += _linear(wide, feed_forward.project, work("update", *hidden.shape))


def plan_chunks(real: np.ndarray) -> List[Tuple[np.ndarray, int]]:
    """The chunks both bodies of ``encode`` run, as ``(rows, length)`` pairs.

    ``real`` is the ``(rows, width)`` mask of non-padding tokens.  A row's
    extent ends at its last real token: trailing padding is cut, interior
    padding stays and is masked.  Rows are ordered by decreasing extent,
    stably, and cut into chunks of at most ``_CHUNK_ROWS``; ``length`` is the
    extent of a chunk's first (longest) row.  All-padding rows are in no
    chunk: they pool to the zero vector.
    """
    extents = (real * np.arange(1, real.shape[1] + 1)).max(axis=1, initial=0)
    order = np.argsort(-extents, kind="stable")[: np.count_nonzero(extents)]
    return [
        (order[start:start + _CHUNK_ROWS], int(extents[order[start]]))
        for start in range(0, len(order), _CHUNK_ROWS)
    ]


def pooled_encode(encoder: "TransformerEncoder", token_ids: np.ndarray) -> np.ndarray:
    """Mean over real tokens of the final hidden states, one row per row of
    ``token_ids`` (2-D int64), in input order; builds no graph."""
    encoder.token_embedding.check_indices(token_ids)
    num_rows, width = token_ids.shape
    positions = encoder.position_embedding.rows(width)
    table = encoder.token_embedding.weight.data
    dim = table.shape[1]
    work = _Workspace()
    real = token_ids != encoder.padding_idx
    pooled = np.zeros((num_rows, dim))

    for chunk, length in plan_chunks(real):
        keep = real[chunk, :length]
        bias = MultiHeadAttention.padding_bias(~keep)
        hidden = work("hidden", len(chunk), length, dim)
        # Indices were range-checked above; "clip" only skips take's bounce buffer.
        np.take(table, token_ids[chunk, :length], axis=0, out=hidden, mode="clip")
        hidden += positions[:length]
        for layer in encoder.layers:
            _encoder_layer(hidden, bias, layer, work)
        normed = _layer_norm(hidden, encoder.final_norm, work("normed", *hidden.shape))
        weights = keep.astype(np.float64)
        weights /= weights.sum(axis=1, keepdims=True)
        pooled[chunk] = np.matmul(weights[:, None, :], normed)[:, 0]
    return pooled
