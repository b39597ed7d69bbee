"""Module/Parameter abstractions, the backbone of every model in the repo.

A :class:`Module` owns named :class:`Parameter` tensors and child modules and
provides the familiar ``parameters`` / ``state_dict`` / ``load_state_dict`` /
``train`` / ``eval`` API.  The meta-learning loop relies on two extra
operations that PyTorch hides behind ``higher``:

* :meth:`Module.flatten_parameters` / :meth:`Module.assign_flat_parameters`
  allow taking a "virtual step" (the meta-forward update of Algorithm 1) and
  rolling it back without rebuilding the model.
* :meth:`Module.gradient_vector` collects all parameter gradients into a
  single flat vector, which the reweighting rule dots against per-example
  gradients.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .tensor import Tensor


class Parameter(Tensor):
    """A tensor registered as a trainable model parameter."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for neural modules (layers and whole models)."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Explicitly register a child module under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs, depth first."""
        for name, parameter in self._parameters.items():
            yield (f"{prefix}{name}", parameter)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> List[Parameter]:
        """Return all parameters of this module and its children."""
        return [parameter for _, parameter in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` pairs including ``self``."""
        yield prefix.rstrip("."), self
        for child_name, child in self._modules.items():
            yield from child.named_modules(prefix=f"{prefix}{child_name}.")

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(parameter.size for parameter in self.parameters()))

    # ------------------------------------------------------------------
    # Train / eval / gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout)."""
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    def gradient_vector(self) -> np.ndarray:
        """Concatenate all parameter gradients into one flat vector.

        Missing gradients contribute zeros, so the result always has the same
        length as :meth:`flatten_parameters`.
        """
        chunks = []
        for parameter in self.parameters():
            if parameter.grad is None:
                chunks.append(np.zeros(parameter.size))
            else:
                chunks.append(parameter.grad.reshape(-1))
        return np.concatenate(chunks) if chunks else np.zeros(0)

    # ------------------------------------------------------------------
    # Flat-parameter view (used for virtual meta steps)
    # ------------------------------------------------------------------
    def flatten_parameters(self) -> np.ndarray:
        """Return a copy of all parameters concatenated into one vector."""
        if not self.parameters():
            return np.zeros(0)
        return np.concatenate([parameter.data.reshape(-1).copy() for parameter in self.parameters()])

    def assign_flat_parameters(self, flat: np.ndarray) -> None:
        """Overwrite parameters in place from a flat vector."""
        offset = 0
        for parameter in self.parameters():
            size = parameter.size
            parameter.data = flat[offset:offset + size].reshape(parameter.shape).copy()
            offset += size
        if offset != flat.size:
            raise ValueError(
                f"flat parameter vector has {flat.size} entries, model expects {offset}"
            )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a name → array snapshot of all parameters."""
        return {name: parameter.data.copy() for name, parameter in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameters from a snapshot produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = [name for name in own if name not in state]
        unexpected = [name for name in state if name not in own]
        if strict and (missing or unexpected):
            raise KeyError(f"state dict mismatch: missing={missing}, unexpected={unexpected}")
        for name, parameter in own.items():
            if name not in state:
                continue
            value = np.asarray(state[name])
            if value.shape != parameter.shape:
                raise ValueError(
                    f"shape mismatch for {name}: checkpoint {value.shape} vs model {parameter.shape}"
                )
            parameter.data = value.astype(parameter.data.dtype, copy=True)

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """Hold an indexable list of child modules."""

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        self._order: List[str] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        name = f"item{len(self._order)}"
        self.register_module(name, module)
        self._order.append(name)
        return self

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)
