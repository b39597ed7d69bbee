"""Optimisers (SGD, Adam) and gradient utilities.

Optimisers expose ``state_dict`` / ``load_state_dict`` so a training run can
be checkpointed and resumed bit-identically (moment buffers, step counters
and the learning rate all round-trip; see
:func:`repro.nn.serialization.save_training_checkpoint`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from .module import Parameter


class Optimizer:
    """Base optimiser holding a parameter list."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def state_dict(self) -> Dict[str, object]:
        """Serialisable optimiser state (see subclasses for buffers)."""
        return {"lr": float(self.lr)}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore state produced by :meth:`state_dict`."""
        self.lr = float(state["lr"])

    @staticmethod
    def _check_buffers(buffers: List[np.ndarray], parameters: List[Parameter], label: str) -> List[np.ndarray]:
        if len(buffers) != len(parameters):
            raise ValueError(
                f"optimizer state has {len(buffers)} {label} buffers, "
                f"model has {len(parameters)} parameters"
            )
        restored = []
        for buffer, parameter in zip(buffers, parameters):
            buffer = np.asarray(buffer, dtype=np.float64)
            if buffer.shape != parameter.shape:
                raise ValueError(
                    f"{label} buffer shape {buffer.shape} does not match "
                    f"parameter shape {parameter.shape}"
                )
            restored.append(buffer.copy())
        return restored


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for parameter, velocity in zip(self.parameters, self._velocity):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            parameter.data = parameter.data - self.lr * grad

    def state_dict(self) -> Dict[str, object]:
        return {"lr": float(self.lr), "velocity": [v.copy() for v in self._velocity]}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        super().load_state_dict(state)
        self._velocity = self._check_buffers(list(state["velocity"]), self.parameters, "velocity")


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015), the optimiser used by BLINK."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 2e-5,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for parameter, m, v in zip(self.parameters, self._m, self._v):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * (grad * grad)
            m_hat = m / bias1
            v_hat = v / bias2
            parameter.data = parameter.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> Dict[str, object]:
        return {
            "lr": float(self.lr),
            "step_count": int(self._step_count),
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        super().load_state_dict(state)
        self._step_count = int(state["step_count"])
        self._m = self._check_buffers(list(state["m"]), self.parameters, "m")
        self._v = self._check_buffers(list(state["v"]), self.parameters, "v")


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Clip gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for logging).
    """
    parameters = [p for p in parameters if p.grad is not None]
    if not parameters:
        return 0.0
    total = float(np.sqrt(sum(float((p.grad * p.grad).sum()) for p in parameters)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for parameter in parameters:
            parameter.grad = parameter.grad * scale
    return total
