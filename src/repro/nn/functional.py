"""Functional neural-network operations built on :class:`repro.nn.tensor.Tensor`.

These free functions mirror the subset of ``torch.nn.functional`` the paper's
models rely on: GELU, softmax / log-softmax, cross entropy, embedding
lookups, normalisation and dropout, plus the two fused nodes every layer is
built from — :func:`linear` and :func:`attention_weights`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from .tensor import Tensor, is_grad_enabled

__all__ = [
    "gelu",
    "softmax",
    "attention_weights",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "embedding",
    "linear",
    "dropout",
    "keep_scale",
    "normalize",
    "one_hot",
]


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as in BERT)."""
    return x.gelu()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return x.softmax(axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a one-hot float matrix for integer ``indices``."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def nll_loss(
    log_probs: Tensor,
    targets: Union[np.ndarray, Sequence[int]],
    reduction: str = "mean",
    sample_weights: Optional[np.ndarray] = None,
) -> Tensor:
    """Negative log-likelihood loss over the last axis of ``log_probs``.

    ``log_probs`` has shape ``(batch, classes)``; ``targets`` holds integer
    class indices.  ``sample_weights`` optionally weights each example, which
    is how the meta-learned weights enter the training objective (Eq. 7/15).
    """
    targets = np.asarray(targets, dtype=np.int64)
    mask = one_hot(targets, log_probs.shape[-1])
    per_example = -(log_probs * mask).sum(axis=-1)
    if sample_weights is not None:
        per_example = per_example * np.asarray(sample_weights, dtype=np.float64)
    if reduction == "none":
        return per_example
    if reduction == "sum":
        return per_example.sum()
    if reduction == "mean":
        return per_example.mean()
    raise ValueError(f"unknown reduction: {reduction!r}")


def cross_entropy(
    logits: Tensor,
    targets: Union[np.ndarray, Sequence[int]],
    reduction: str = "mean",
    sample_weights: Optional[np.ndarray] = None,
) -> Tensor:
    """Softmax cross entropy with integer targets.

    This is the in-batch contrastive loss of Eq. (6) when ``logits`` is the
    mention-vs-batch-entities score matrix and ``targets`` is the diagonal.
    """
    return nll_loss(
        log_softmax(logits, axis=-1),
        targets,
        reduction=reduction,
        sample_weights=sample_weights,
    )


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` according to integer ``indices``."""
    indices = np.asarray(indices, dtype=np.int64)
    out_data = weight.data[indices]

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            full = np.zeros_like(weight.data)
            np.add.at(full, indices.reshape(-1), grad.reshape(-1, weight.shape[-1]))
            weight._accumulate(full)

    if not (is_grad_enabled() and weight.requires_grad):
        return Tensor(out_data)
    return Tensor(out_data, requires_grad=True, _parents=(weight,), _backward=backward)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Fused affine map ``x @ weight.T + bias`` over the last axis of ``x``.

    One graph node where the composition builds three (transpose, matmul,
    add): ``x`` is flattened to 2-D so the product, the input gradient and
    the weight gradient are one GEMM each, and the bias is added in place
    into the product this node owns.
    """
    w = weight.data
    flat_x = x.data.reshape(-1, x.shape[-1])
    flat_out = flat_x @ w.T
    if bias is not None:
        flat_out += bias.data
    out_data = flat_out.reshape(x.shape[:-1] + (w.shape[0],))

    def backward(grad: np.ndarray) -> None:
        flat_grad = grad.reshape(-1, w.shape[0])
        if x.requires_grad:
            x._accumulate((flat_grad @ w).reshape(x.shape))
        if weight.requires_grad:
            weight._accumulate(flat_grad.T @ flat_x)
        if bias is not None and bias.requires_grad:
            bias._accumulate(flat_grad.sum(axis=0))

    return x._make(out_data, (x, weight) if bias is None else (x, weight, bias), backward)


def keep_scale(shape, rate: float, rng: Optional[np.random.Generator]) -> np.ndarray:
    """Inverted-dropout multiplier: ``1 / (1 - rate)`` where kept, else 0.

    One ``rng.random(shape)`` call (the draw every trajectory is seeded by),
    thresholded and scaled in the array it returns.
    """
    if rate >= 1.0:
        raise ValueError("dropout rate must be < 1")
    rng = rng if rng is not None else np.random.default_rng()
    keep = rng.random(shape)
    np.greater_equal(keep, rate, out=keep)
    keep /= 1.0 - rate
    return keep


def dropout(
    x: Tensor,
    rate: float,
    training: bool,
    rng: Optional[np.random.Generator] = None,
    keep: Optional[np.ndarray] = None,
) -> Tensor:
    """Inverted dropout; a no-op when ``training`` is False or ``rate`` is 0.

    ``keep`` is a multiplier of ``x``'s shape drawn beforehand by
    :func:`keep_scale`; without one the draw happens here.
    """
    if not training or rate <= 0.0:
        return x
    if keep is None:
        keep = keep_scale(x.shape, rate, rng)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * keep)

    return x._make(x.data * keep, (x,), backward)


def attention_weights(
    scores: Tensor, scale: float, bias: Optional[np.ndarray], keep: Optional[np.ndarray]
) -> Tensor:
    """Fused ``softmax(scores * scale + bias, axis=-1) * keep``.

    One graph node and one map-sized buffer where the composition builds
    four nodes and as many arrays; ``bias`` is a constant additive mask
    (``-1e9`` at padded / future keys) broadcast against the scores, or
    ``None``.  ``keep`` is the inverted-dropout multiplier of the map
    (:meth:`Dropout.keep_scale`: the draw :func:`dropout` would make, so a
    seeded generator yields the same trajectory either way), ``None`` when
    dropout is inert.
    """
    probs = scores.data * scale
    if bias is not None:
        probs += bias
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    out_data = probs if keep is None else probs * keep

    def backward(grad: np.ndarray) -> None:
        # Two passes over buffers of this closure's own: the row-wise inner
        # product of the softmax Jacobian, then the scaled difference.
        flowing = grad if keep is None else grad * keep
        work = flowing * probs
        inner = work.sum(axis=-1, keepdims=True)
        np.subtract(flowing, inner, out=work)
        work *= probs
        work *= scale
        scores._accumulate(work)

    return scores._make(out_data, (scores,), backward)


def normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """L2-normalise ``x`` along ``axis``."""
    norm = ((x * x).sum(axis=axis, keepdims=True) + eps) ** 0.5
    return x / norm
