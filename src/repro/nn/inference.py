"""The transformer encoder's one arithmetic, and its written-out backward.

:meth:`TransformerEncoder.encode` runs every call through :func:`pooled_encode`,
the encoder's forward written on raw numpy arrays: rows are ordered by real
length and processed in fixed-size chunks (:func:`plan_chunks`), each trimmed
to its own longest row, so padding never reaches a matmul or the ``L x L``
attention scores, and every element-wise step updates a buffer in place
instead of allocating an array and a ``Tensor`` node per op.  It has two uses:

* **graph-free** (``no_grad``): the forward only; in train mode it multiplies
  by the dropout multipliers it is handed.
* **recording** (gradients enabled): the same forward, which also files per
  chunk the activations :func:`encode_backward` reads -- the closed form of
  the same arithmetic (layer norm, the Q/K/V projections fused into one
  GEMM, the masked softmax, the output projection, GELU, the feed-forward,
  the final norm, the masked mean and the embedding scatter-add).  ``encode``
  wraps the pair in one graph node whose parents are the encoder's
  parameters.

``TransformerEncoder.forward`` (the padded ``Tensor``-module forward the
seq2seq rewriter reads) is the oracle both are held to:
``tests/nn/test_chunked_graph_encode.py`` and ``test_inference_forward.py``
(they agree to rounding: sums run in another order, the ``1/sqrt(head_dim)``
scale is applied to the queries and the softmax denominator to the weighted
sum), ``tests/nn/test_fused_nodes.py`` checks the backward against central
differences.

Every buffer lives in a :class:`_Workspace` local to one call, and a recorded
call's activations live in the node's closure.  Thread replicas share one
encoder (``EntityLinkingPipeline.clone()``), so two threads run this on the
same module at the same time: nothing may be kept on the module or at module
level.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .attention import MultiHeadAttention
from .layers import LayerNorm, Linear
from .module import Parameter

if TYPE_CHECKING:
    from .transformer import Keeps, TransformerEncoder, TransformerEncoderLayer

#: Rows per chunk of ``encode``, chosen by measurement on the serving
#: cross-encoder (128 rows of <= 72 tokens, 2 heads, float64): at 8-16 rows a
#: chunk's score buffer (16 x 2 x 72 x 72 doubles, 1.3 MB) stays
#: cache-resident and the ~0.25 ms of numpy call overhead a chunk costs is
#: amortised; 32 rows measure 15 % slower or worse, 128 rows 1.8x.
_CHUNK_ROWS = 16

_GELU_SCALE = math.sqrt(2.0 / math.pi)

#: One ``encode`` call's dropout multipliers, drawn at the padded shape: the
#: embedding's, then each layer's :meth:`TransformerEncoderLayer.keep_scales`.
EncoderKeeps = Tuple[Optional[np.ndarray], Sequence["Keeps"]]

#: What a recorded block files for the backward, by name.
Record = Dict[str, np.ndarray]

#: A recorded call: per chunk, its own record and one per layer.
Tape = List[Tuple[Record, List[Record]]]

#: A backward call's parameter gradients, summed over chunks, by ``id``.
Gradients = Dict[int, np.ndarray]


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

    def kept(
        self, record: Optional[Record], name: str, *shape: int, scratch: str = ""
    ) -> np.ndarray:
        """A buffer the backward reads: a fresh array filed in ``record`` under
        ``name`` when recording, otherwise the scratch buffer ``scratch``
        (default: ``name``)."""
        if record is None:
            return self(scratch or name, *shape)
        array = record[name] = np.empty(shape)
        return array


def _layer_norm(
    x: np.ndarray, norm: LayerNorm, out: np.ndarray, record: Optional[Record] = None, name: str = ""
) -> np.ndarray:
    """``out = standardize(x) * weight + bias`` over the last axis.  Recording,
    the standardized ``x`` and its deviation are filed under ``name``."""
    mean = np.einsum("...d->...", x)[..., None]
    mean /= x.shape[-1]
    standardized = out if record is None else np.empty(x.shape)
    np.subtract(x, mean, out=standardized)
    deviation = np.einsum("...d,...d->...", standardized, standardized)[..., None]
    deviation /= x.shape[-1]
    deviation += norm.eps
    np.sqrt(deviation, out=deviation)
    standardized /= deviation
    np.multiply(standardized, norm.weight.data, out=out)
    out += norm.bias.data
    if record is not None:
        record[name + ".standardized"], record[name + ".deviation"] = standardized, deviation
    return out


def _linear(x: np.ndarray, linear: Linear, out: np.ndarray) -> np.ndarray:
    # x stays 3-D: one small gemm per row, which OpenBLAS runs single-threaded.
    np.matmul(x, linear.weight.data.T, out=out)
    out += linear.bias.data
    return out


def _gelu(x: np.ndarray, inner: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``Tensor.gelu`` of ``x`` into ``out`` (which may be ``x``), in its order of
    operations; ``inner`` is left holding ``1 + tanh(...)``, the backward's factor."""
    np.multiply(x, x, out=inner)
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= _GELU_SCALE
    np.tanh(inner, out=inner)
    inner += 1.0
    np.multiply(x, 0.5, out=out)
    out *= inner
    return out


def _dropped(x: np.ndarray, keep: Optional[np.ndarray], work: _Workspace) -> np.ndarray:
    """``x * keep`` in scratch, or ``x`` itself where dropout is inert."""
    return x if keep is None else np.multiply(x, keep, out=work("dropped", *x.shape))


def _encoder_layer(
    hidden: np.ndarray,
    bias: np.ndarray,
    layer: "TransformerEncoderLayer",
    work: _Workspace,
    keeps: "Keeps" = (None, None, None),
    record: Optional[Record] = None,
) -> None:
    """One pre-norm block, accumulated into ``hidden`` (rows, length, dim).

    ``keeps`` are the block's dropout multipliers cut to this chunk (attention
    map, residual, feed-forward); ``record``, when given, receives what
    :func:`_encoder_layer_backward` reads.
    """
    attention, feed_forward = layer.self_attention, layer.feed_forward
    attention_keep, residual_keep, feed_forward_keep = keeps
    rows, length, _ = hidden.shape
    split = (rows, length, attention.num_heads, attention.head_dim)
    normed = work("normed", *hidden.shape)
    _layer_norm(hidden, layer.norm_attention, normed, record, "attention")
    q = _linear(normed, attention.query_proj, work.kept(record, "q", *hidden.shape))
    q *= 1.0 / math.sqrt(attention.head_dim)
    k = _linear(normed, attention.key_proj, work.kept(record, "k", *hidden.shape))
    v = _linear(normed, attention.value_proj, work.kept(record, "v", *hidden.shape))
    q, k, v = (x.reshape(split).transpose(0, 2, 1, 3) for x in (q, k, v))
    scores = work.kept(record, "scores", rows, attention.num_heads, length, length)
    np.matmul(q, k.transpose(0, 1, 3, 2), out=scores)
    scores += bias
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    denominator = scores.sum(axis=-1, keepdims=True)
    weights = _dropped(scores, attention_keep, work)
    merged = work.kept(record, "merged", *hidden.shape)
    attended = merged.reshape(split).transpose(0, 2, 1, 3)
    np.matmul(weights, v, out=attended)
    attended /= denominator
    update = _linear(merged, attention.out_proj, work("update", *hidden.shape))
    if residual_keep is not None:
        update *= residual_keep
    hidden += update

    _layer_norm(hidden, layer.norm_feed_forward, normed, record, "feed_forward")
    wide_shape = (rows, length, feed_forward.expand.out_features)
    wide = _linear(normed, feed_forward.expand, work.kept(record, "wide", *wide_shape))
    activated = _gelu(
        wide,
        work.kept(record, "wide.tanh", *wide_shape, scratch="wide_scratch"),
        work.kept(record, "activated", *wide_shape, scratch="wide"),
    )
    update = _linear(activated, feed_forward.project, work("update", *hidden.shape))
    if feed_forward_keep is not None:
        update *= feed_forward_keep
    hidden += update
    if record is not None:
        record["denominator"] = denominator
        for name, keep in zip(("attention.keep", "residual.keep", "feed_forward.keep"), keeps):
            if keep is not None:
                record[name] = keep


def plan_chunks(real: np.ndarray) -> List[Tuple[np.ndarray, int]]:
    """The chunks ``encode`` runs, as ``(rows, length)`` pairs.

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


def _cut(keep: Optional[np.ndarray], rows: np.ndarray, length: int) -> Optional[np.ndarray]:
    """A multiplier drawn at the padded shape, cut to one chunk: its rows,
    every position axis trimmed to ``length``."""
    if keep is None:
        return None
    if keep.ndim == 4:  # an attention map: (rows, heads, queries, keys)
        return keep[rows, :, :length, :length]
    return keep[rows, :length]


def pooled_encode(
    encoder: "TransformerEncoder",
    token_ids: np.ndarray,
    keeps: Optional[EncoderKeeps] = None,
    tape: Optional[Tape] = None,
) -> np.ndarray:
    """Mean over real tokens of the final hidden states, one row per row of
    ``token_ids`` (2-D int64), in input order; builds no graph.

    ``keeps`` are the call's dropout multipliers drawn at the padded shape
    (``None`` in eval mode); each chunk multiplies by its own slice.  Given a
    ``tape``, every chunk appends its records for :func:`encode_backward`.
    """
    encoder.token_embedding.check_indices(token_ids)
    num_rows, width = token_ids.shape
    positions = encoder.position_embedding.rows(width)
    table = encoder.token_embedding.weight.data
    dim = table.shape[1]
    work = _Workspace()
    real = token_ids != encoder.padding_idx
    pooled = np.zeros((num_rows, dim))
    embedding_keep, layer_keeps = keeps or (None, [(None, None, None)] * len(encoder.layers))

    for chunk, length in plan_chunks(real):
        tokens = real[chunk, :length]
        bias = MultiHeadAttention.padding_bias(~tokens)
        hidden = work("hidden", len(chunk), length, dim)
        ids = token_ids[chunk, :length]
        # Indices were range-checked above; "clip" only skips take's bounce buffer.
        np.take(table, ids, axis=0, out=hidden, mode="clip")
        hidden += positions[:length]
        chunk_record = None if tape is None else {"rows": chunk, "ids": ids}
        layer_records = [None if tape is None else {} for _ in layer_keeps]
        if embedding_keep is not None:
            keep = _cut(embedding_keep, chunk, length)
            hidden *= keep
            if chunk_record is not None:
                chunk_record["embedding.keep"] = keep
        for layer, layer_keep, record in zip(encoder.layers, layer_keeps, layer_records):
            chunk_keeps = tuple(_cut(keep, chunk, length) for keep in layer_keep)
            _encoder_layer(hidden, bias, layer, work, chunk_keeps, record)
        normed = work("normed", *hidden.shape)
        _layer_norm(hidden, encoder.final_norm, normed, chunk_record, "final")
        weights = tokens.astype(np.float64)
        weights /= weights.sum(axis=1, keepdims=True)
        pooled[chunk] = np.matmul(weights[:, None, :], normed)[:, 0]
        if tape is not None:
            chunk_record["weights"] = weights
            tape.append((chunk_record, layer_records))
    return pooled


# ----------------------------------------------------------------------
# The backward: the closed form of the arithmetic above
# ----------------------------------------------------------------------
def _add(gradients: Gradients, parameter: Parameter, value: np.ndarray) -> None:
    """Sum ``value`` into ``parameter``'s gradient.  The first value is kept,
    later ones are added into it: every value must be an array this backward
    call allocated and reads nowhere else."""
    total = gradients.get(id(parameter))
    if total is None:
        gradients[id(parameter)] = value
    else:
        total += value


def _linear_grads(
    d_out: np.ndarray, x: np.ndarray, norm: Optional[LayerNorm] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Weight and bias gradient of ``out = x @ W.T + b`` given ``d_out``, both
    3-D; one small product per row, summed, as the forward runs them.  With
    ``norm``, ``x`` is the standardized input of that layer norm and the
    linear read ``x * weight + bias``: the product runs on ``x`` and the
    affine map is applied to the small result."""
    d_bias = np.einsum("rlo->o", d_out)
    d_weight = np.matmul(d_out.transpose(0, 2, 1), x).sum(axis=0)
    if norm is not None:
        d_weight *= norm.weight.data
        d_weight += np.outer(d_bias, norm.bias.data)
    return d_weight, d_bias


def _linear_backward(
    d_out: np.ndarray,
    linear: Linear,
    x: np.ndarray,
    gradients: Gradients,
    d_x: np.ndarray,
    norm: Optional[LayerNorm] = None,
) -> np.ndarray:
    """``d_x = d_out @ W`` for ``out = x @ W.T + b``; adds ``W``'s and ``b``'s
    gradients (``x`` and ``norm`` as in :func:`_linear_grads`)."""
    d_weight, d_bias = _linear_grads(d_out, x, norm)
    _add(gradients, linear.weight, d_weight)
    _add(gradients, linear.bias, d_bias)
    return np.matmul(d_out, linear.weight.data, out=d_x)


def _layer_norm_backward(
    d_out: np.ndarray,
    norm: LayerNorm,
    record: Record,
    name: str,
    gradients: Gradients,
    d_x: np.ndarray,
    work: _Workspace,
) -> np.ndarray:
    """``d_x`` for ``out = standardize(x) * weight + bias``, from what
    :func:`_layer_norm` filed under ``name``; adds the affine gradients."""
    standardized = record[name + ".standardized"]
    dim = d_out.shape[-1]
    _add(gradients, norm.weight, np.einsum("rld,rld->d", d_out, standardized))
    _add(gradients, norm.bias, np.einsum("rld->d", d_out))
    np.multiply(d_out, norm.weight.data, out=d_x)
    mean = np.einsum("...d->...", d_x)[..., None]
    mean /= dim
    projection = np.einsum("...d,...d->...", d_x, standardized)[..., None]
    projection /= dim
    d_x -= mean
    d_x -= np.multiply(standardized, projection, out=work("projected", *d_x.shape))
    d_x /= record[name + ".deviation"]
    return d_x


def _gelu_backward(d_activated: np.ndarray, record: Record, work: _Workspace) -> np.ndarray:
    """``d_activated`` times GELU's slope at ``wide``, in place:
    ``0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 * 0.044715 x^2)``, ``t`` the tanh."""
    x, one_plus_t = record["wide"], record["wide.tanh"]
    slope = work("slope", *x.shape)
    np.subtract(2.0, one_plus_t, out=slope)
    slope *= one_plus_t  # 1 - t^2
    slope *= x
    slope *= 0.5 * _GELU_SCALE
    square = np.multiply(x, x, out=work("square", *x.shape))
    square *= 3 * 0.044715
    square += 1.0
    slope *= square
    np.multiply(one_plus_t, 0.5, out=square)
    slope += square
    d_activated *= slope
    return d_activated


def _encoder_layer_backward(
    d_hidden: np.ndarray,
    layer: "TransformerEncoderLayer",
    fused_qkv: np.ndarray,
    record: Record,
    gradients: Gradients,
    work: _Workspace,
) -> None:
    """Turn ``d_hidden``, the gradient at the block's output, into the one at
    its input (in place), adding every parameter gradient of the block.
    ``fused_qkv`` is the query, key and value weights stacked, ``(3 dim, dim)``."""
    attention, feed_forward = layer.self_attention, layer.feed_forward
    rows, length, dim = d_hidden.shape
    split = (rows, length, attention.num_heads, attention.head_dim)

    # hidden += project(gelu(expand(normed))) * keep
    d_update = _dropped(d_hidden, record.get("feed_forward.keep"), work)
    d_wide = _linear_backward(d_update, feed_forward.project, record["activated"], gradients,
                              work("d_wide", *record["wide"].shape))
    _gelu_backward(d_wide, record, work)
    d_normed = _linear_backward(
        d_wide, feed_forward.expand, record["feed_forward.standardized"], gradients,
        work("d_normed", *d_hidden.shape), layer.norm_feed_forward,
    )
    d_hidden += _layer_norm_backward(d_normed, layer.norm_feed_forward, record, "feed_forward",
                                     gradients, work("d_x", *d_hidden.shape), work)

    # hidden += out_proj(merge(dropped(E) @ v / denominator)) * keep, where
    # E = exp(scores - max) and the denominator is E's row sum.  Carried
    # through 1 / denominator, the softmax backward needs no probabilities:
    # d_scores = E * (keep * G - inner), G = d_attended v^T and inner the
    # row-wise d_attended . attended (both with d_attended / denominator).
    d_update = _dropped(d_hidden, record.get("residual.keep"), work)
    d_merged = _linear_backward(d_update, attention.out_proj, record["merged"], gradients,
                                work("d_merged", *d_hidden.shape))
    q, k, v, attended = (
        record[name].reshape(split).transpose(0, 2, 1, 3) for name in ("q", "k", "v", "merged")
    )
    d_attended = np.divide(d_merged.reshape(split).transpose(0, 2, 1, 3), record["denominator"],
                           out=work("d_attended", *q.shape))
    exp_scores = record["scores"]
    keep = record.get("attention.keep")
    weights = _dropped(exp_scores, keep, work)
    d_qkv = work("d_qkv", rows, length, 3, dim)
    d_q, d_k, d_v = (d_qkv[:, :, part].reshape(split).transpose(0, 2, 1, 3) for part in range(3))
    np.matmul(weights.transpose(0, 1, 3, 2), d_attended, out=d_v)
    d_scores = work("d_scores", *exp_scores.shape)
    np.matmul(d_attended, v.transpose(0, 1, 3, 2), out=d_scores)
    if keep is not None:
        d_scores *= keep
    d_scores -= np.einsum("rhqd,rhqd->rhq", d_attended, attended)[..., None]
    d_scores *= exp_scores
    np.matmul(d_scores.transpose(0, 1, 3, 2), q, out=d_k)  # q carries the scale
    np.matmul(d_scores, k, out=d_q)
    d_q *= 1.0 / math.sqrt(attention.head_dim)

    # The three projections as one: [d_q d_k d_v] against the stacked weights.
    d_qkv = d_qkv.reshape(rows, length, 3 * dim)
    d_weight, d_bias = _linear_grads(d_qkv, record["attention.standardized"], layer.norm_attention)
    projections = (attention.query_proj, attention.key_proj, attention.value_proj)
    for part, projection in enumerate(projections):
        _add(gradients, projection.weight, d_weight[part * dim:(part + 1) * dim])
        _add(gradients, projection.bias, d_bias[part * dim:(part + 1) * dim])
    d_normed = np.matmul(d_qkv, fused_qkv, out=work("d_normed", *d_hidden.shape))
    d_hidden += _layer_norm_backward(d_normed, layer.norm_attention, record, "attention",
                                     gradients, work("d_x", *d_hidden.shape), work)


def encode_backward(encoder: "TransformerEncoder", tape: Tape, d_pooled: np.ndarray) -> Gradients:
    """Every parameter gradient of a recorded :func:`pooled_encode` call, given
    the gradient of its pooled rows.  Reads the tape without writing into it,
    so a retained node can run its backward again; every returned array is
    this call's own."""
    work = _Workspace()
    gradients: Gradients = {}
    layers = list(encoder.layers)
    fused_qkv = [
        np.concatenate([layer.self_attention.query_proj.weight.data,
                        layer.self_attention.key_proj.weight.data,
                        layer.self_attention.value_proj.weight.data])
        for layer in layers
    ]
    dim = encoder.model_dim
    table, positions = encoder.token_embedding.weight, encoder.position_embedding.weight
    d_table, d_positions = np.zeros_like(table.data), np.zeros_like(positions.data)
    for chunk, layer_records in tape:
        rows, ids = chunk["rows"], chunk["ids"]
        # pooled = weights @ final_norm(hidden)
        d_normed = np.multiply(chunk["weights"][:, :, None], d_pooled[rows][:, None, :],
                               out=work("d_normed", *ids.shape, dim))
        d_hidden = _layer_norm_backward(d_normed, encoder.final_norm, chunk, "final", gradients,
                                        work("d_hidden", *ids.shape, dim), work)
        for index in reversed(range(len(layers))):
            _encoder_layer_backward(d_hidden, layers[index], fused_qkv[index], layer_records[index],
                                    gradients, work)
        # hidden = (table[ids] + positions) * keep
        keep = chunk.get("embedding.keep")
        if keep is not None:
            d_hidden *= keep
        d_positions[:ids.shape[1]] += np.einsum("rld->ld", d_hidden)
        # One flat index per element: add.at's fast path is one-dimensional.
        elements = (ids[..., None] * dim + np.arange(dim)).reshape(-1)
        np.add.at(d_table.reshape(-1), elements, d_hidden.reshape(-1))
    if tape:
        _add(gradients, table, d_table)
        _add(gradients, positions, d_positions)
    return gradients
