"""Weight-initialisation helpers for :mod:`repro.nn` modules."""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np


def xavier_uniform(shape: Tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for a 2-D weight matrix."""
    fan_in, fan_out = _fans(shape)
    limit = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def normal(shape: Tuple[int, ...], rng: np.random.Generator, std: float = 0.02) -> np.ndarray:
    """Truncated-free normal initialisation (BERT-style std=0.02)."""
    return rng.normal(0.0, std, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero initialisation (biases, LayerNorm shift)."""
    return np.zeros(shape)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    """All-one initialisation (LayerNorm scale)."""
    return np.ones(shape)


def _fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("cannot compute fans of a scalar shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out
