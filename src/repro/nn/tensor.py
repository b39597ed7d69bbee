"""A minimal reverse-mode automatic differentiation engine on numpy arrays.

This module provides the :class:`Tensor` class used by every neural model in
the reproduction (bi-encoder, cross-encoder, seq2seq rewriter).  It follows a
define-by-run design: each operation records its parents and a backward
closure, and :meth:`Tensor.backward` runs a topological sweep that accumulates
gradients into ``Tensor.grad``.

The engine intentionally supports only what the paper's models need:
broadcasted elementwise arithmetic, matrix multiplication, reductions,
indexing/gather, concatenation, reshaping and the usual activations (the
activations live in :mod:`repro.nn.functional`).
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

#: Whether operations record gradient information.  Thread-local: serving
#: replicas run ``no_grad`` forward passes on their own scheduler threads, and
#: with a process-global flag two interleaved enter/exit pairs can restore each
#: other's snapshots and leave gradients disabled for the whole process
#: (breaking any training that runs afterwards).  Each thread starts with
#: gradients enabled.
_grad_state = threading.local()


class no_grad:
    """Context manager that disables gradient tracking.

    Mirrors ``torch.no_grad``; used during evaluation / retrieval so the
    engine does not build graphs for inference-only forward passes.
    """

    def __enter__(self) -> "no_grad":
        self._previous = is_grad_enabled()
        _grad_state.enabled = False
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        _grad_state.enabled = self._previous


def is_grad_enabled() -> bool:
    """Whether operations on *this thread* record gradient information."""
    return getattr(_grad_state, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "fc":
            return value
        return value.astype(np.float64)
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A numpy-backed tensor with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload.  Floating point data is kept as-is, everything
        else is cast to ``float64``.
    requires_grad:
        Whether gradients should be accumulated for this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def item(self) -> float:
        """Return the scalar value of a one-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but outside the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _ensure(value: Union["Tensor", ArrayLike]) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(out_data, (self, other), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make(out_data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self.__add__(self._ensure(other).__neg__())

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return self._make(out_data, (self, other), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
                )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        """Matrix product supporting batched operands (numpy semantics)."""
        other = self._ensure(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    grad_self = np.outer(grad, other.data) if grad.ndim == 1 else (
                        grad[..., None] * other.data
                    )
                    grad_self = grad_self.reshape(self.shape) if grad_self.shape == self.shape else _unbroadcast(grad_self, self.shape)
                else:
                    grad_self = grad @ np.swapaxes(other.data, -1, -2)
                    grad_self = _unbroadcast(grad_self, self.shape)
                self._accumulate(grad_self)
            if other.requires_grad:
                if self.data.ndim == 1:
                    grad_other = np.outer(self.data, grad) if grad.ndim == 1 else (
                        self.data[..., None] * grad
                    )
                    grad_other = _unbroadcast(grad_other, other.shape)
                else:
                    grad_other = np.swapaxes(self.data, -1, -2) @ grad
                    grad_other = _unbroadcast(grad_other, other.shape)
                other._accumulate(grad_other)

        return self._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2))

        return self._make(out_data, (self,), backward)

    def gelu(self) -> "Tensor":
        """Fused GELU (tanh approximation, as in BERT).

        One graph node instead of the eight an op-by-op composition builds;
        ``x**3`` is computed as ``x*x*x`` (numpy's float ``power`` is an order
        of magnitude slower than two multiplies on large arrays).
        """
        x = self.data
        c = math.sqrt(2.0 / math.pi)
        t = np.tanh(c * (x + 0.044715 * (x * x * x)))
        out_data = 0.5 * x * (1.0 + t)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                # 0.5 * (1 + t) + 0.5 * x * sech_sq * c * (1 + 0.134145 * x * x),
                # term by term in two buffers of this closure's own.
                local = t * t
                np.subtract(1.0, local, out=local)
                slope = 0.5 * x
                slope *= local
                slope *= c
                np.multiply(x, x, out=local)
                local *= 0.134145
                local += 1.0
                slope *= local
                np.add(t, 1.0, out=local)
                local *= 0.5
                local += slope
                local *= grad
                self._accumulate(local)

        return self._make(out_data, (self,), backward)

    def standardize(self, eps: float = 1e-5) -> "Tensor":
        """Fused ``(x - mean) / sqrt(var + eps)`` over the last axis.

        The normalisation core of layer norm as a single graph node with the
        closed-form backward, avoiding the six intermediate arrays of the
        op-by-op version.
        """
        x = self.data
        mean = x.mean(axis=-1, keepdims=True)
        centred = x - mean
        variance = (centred * centred).mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(variance + eps)
        out_data = centred * inv_std

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                grad_mean = grad.mean(axis=-1, keepdims=True)
                work = grad * out_data
                projection = work.mean(axis=-1, keepdims=True)
                np.multiply(out_data, projection, out=work)
                result = grad - grad_mean
                result -= work
                result *= inv_std
                self._accumulate(result)

        return self._make(out_data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        """Fused numerically-stable softmax along ``axis``.

        One graph node instead of the shift/exp/sum/divide chain, with the
        standard Jacobian-vector backward ``s * (g - sum(g * s))``.
        """
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        np.exp(shifted, out=shifted)
        out_data = shifted / shifted.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                work = grad * out_data
                inner = work.sum(axis=axis, keepdims=True)
                np.subtract(grad, inner, out=work)
                work *= out_data
                self._accumulate(work)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(grad, self.shape))

        return self._make(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad_arr = np.asarray(grad)
            if axis is None:
                mask = (self.data == out_data)
                scale = mask.sum()
                self._accumulate(grad_arr * mask / scale)
            else:
                expanded_out = out_data if keepdims else np.expand_dims(out_data, axis=axis)
                mask = (self.data == expanded_out)
                counts = mask.sum(axis=axis, keepdims=True)
                grad_exp = grad_arr if keepdims else np.expand_dims(grad_arr, axis=axis)
                self._accumulate(mask * grad_exp / counts)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.shape))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return self._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":  # noqa: N802 - numpy-compatible alias
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        """Take ownership of ``grad`` (first contribution) or add it out of place.

        The ownership rule every backward closure follows: *a closure never
        writes into an array it received as* ``grad`` *or has already handed
        to* ``_accumulate`` *— in-place work is allowed only on buffers the
        closure allocated itself.*  That is what makes keeping the array
        (often a view of, or the very same array as, another node's gradient)
        safe without a defensive copy.
        """
        if self.grad is None:
            self.grad = np.asarray(grad, dtype=np.float64)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar")
            grad = np.ones_like(self.data, dtype=np.float64)
        else:
            # The caller keeps its buffer: the graph only ever sees a copy.
            grad = np.array(grad, dtype=np.float64)

        ordering: list[Tensor] = []
        visited: set[int] = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, False)]
            while stack:
                current, processed = stack.pop()
                if processed:
                    ordering.append(current)
                    continue
                if id(current) in visited:
                    continue
                visited.add(id(current))
                stack.append((current, True))
                for parent in current._parents:
                    if id(parent) not in visited:
                        stack.append((parent, False))

        visit(self)
        self._accumulate(grad)
        for node in reversed(ordering):
            if node._backward is not None and node.grad is not None:
                # A non-leaf's gradient is released as soon as it is consumed:
                # only leaves accumulate across calls, so a second backward
                # through a retained graph starts from clean intermediates.
                consumed, node.grad = node.grad, None
                node._backward(consumed)


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape: Union[int, Tuple[int, ...]], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def stack_tensors(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis, propagating gradients to each input."""
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for piece, t in zip(pieces, tensors):
            if t.requires_grad:
                t._accumulate(np.squeeze(piece, axis=axis).reshape(t.shape))

    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    if not requires:
        return Tensor(out_data)
    return Tensor(out_data, requires_grad=True, _parents=tuple(tensors), _backward=backward)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis with gradient support."""
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            if not t.requires_grad:
                continue
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            t._accumulate(grad[tuple(slicer)])

    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    if not requires:
        return Tensor(out_data)
    return Tensor(out_data, requires_grad=True, _parents=tuple(tensors), _backward=backward)
