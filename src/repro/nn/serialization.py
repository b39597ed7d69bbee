"""Checkpoint save / load for :class:`repro.nn.module.Module`.

:func:`save_checkpoint` / :func:`load_checkpoint` store a module's
parameters plus JSON metadata in one ``.npz`` file: enough to ship a trained
model.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from .module import Module

PathLike = Union[str, Path]


def save_checkpoint(
    module: Module,
    path: PathLike,
    metadata: Optional[Dict[str, object]] = None,
) -> Path:
    """Save a module's parameters (and optional JSON metadata) to ``.npz``.

    Returns the path actually written (always with the ``.npz`` suffix).
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {f"param::{name}": value for name, value in module.state_dict().items()}
    payload["__metadata__"] = np.frombuffer(
        json.dumps(metadata or {}).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **payload)
    return path


def load_checkpoint(module: Module, path: PathLike, strict: bool = True) -> Dict[str, object]:
    """Load parameters saved by :func:`save_checkpoint` into ``module``.

    Returns the metadata dictionary stored alongside the parameters.
    """
    path = Path(path)
    if not path.exists() and path.with_suffix(".npz").exists():
        path = path.with_suffix(".npz")
    with np.load(path) as archive:
        state = {
            key[len("param::"):]: archive[key]
            for key in archive.files
            if key.startswith("param::")
        }
        metadata_bytes = archive["__metadata__"].tobytes() if "__metadata__" in archive.files else b"{}"
    module.load_state_dict(state, strict=strict)
    return json.loads(metadata_bytes.decode("utf-8"))
