#!/usr/bin/env python
"""Render docs/api.md from module/class/function docstrings.

Walks a curated list of public modules (the serving pipeline, the sharded
index and the batched encoder entry points), pulls signatures via
``inspect`` and docstrings via ``pydoc``, and writes a deterministic
markdown reference.  ``docs/api.md`` is a build product (gitignored): CI
renders it — which fails if a listed module no longer imports — and
publishes the file as an artefact.

Usage::

    python scripts/generate_api_docs.py            # write docs/api.md
"""

from __future__ import annotations

import importlib
import inspect
import pydoc
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Modules documented, in order.  Each entry: (module name, section title).
MODULES = [
    ("repro.bench.synthetic", "repro.bench.synthetic — synthetic KB enlarger"),
    ("repro.serving", "repro.serving — serving layer"),
    ("repro.serving.service", "repro.serving.service — dynamic-batching frontend"),
    ("repro.serving.cluster", "repro.serving.cluster — replica pool, router & fault injection"),
    ("repro.serving.resilience", "repro.serving.resilience — supervisor, breakers & brownout"),
    ("repro.serving.pipeline", "repro.serving.pipeline — batched linking pipeline"),
    ("repro.serving.stages", "repro.serving.stages — vectorized stages"),
    ("repro.index", "repro.index — the entity index"),
    ("repro.index.shard", "repro.index.shard — the index shard (exhaustive / celled search, mutation)"),
    ("repro.index.snapshot", "repro.index.snapshot — snapshot format & generation store"),
    ("repro.linking.candidates", "repro.linking.candidates — per-world sharded index"),
    ("repro.linking.biencoder", "repro.linking.biencoder — bi-encoder"),
    ("repro.linking.crossencoder", "repro.linking.crossencoder — cross-encoder"),
    ("repro.linking.blink", "repro.linking.blink — two-stage pipeline"),
    ("repro.training.engine", "repro.training.engine — the training loop (weight→update)"),
    ("repro.training.tasks", "repro.training.tasks — stage adapters"),
    ("repro.meta.reweight", "repro.meta.reweight — example reweighting (Alg. 1)"),
    ("repro.meta.metablink", "repro.meta.metablink — MetaBLINK trainer (Alg. 2)"),
    ("repro.generation.seq2seq", "repro.generation.seq2seq — seq2seq model + greedy decoding"),
    ("repro.generation.rewriter", "repro.generation.rewriter — mention rewriter"),
    ("repro.nn.functional", "repro.nn.functional — graph ops incl. the fused linear / attention-weights nodes"),
    ("repro.nn.transformer", "repro.nn.transformer — encoder/decoder stacks + DecoderState"),
    ("repro.nn.attention", "repro.nn.attention — multi-head attention + KVCache"),
    ("repro.eval.protocol", "repro.eval.protocol — evaluation protocol"),
    ("repro.analysis", "repro.analysis — project-native static analysis"),
    ("repro.analysis.rules", "repro.analysis.rules — domain lint rules"),
]

OUTPUT = REPO_ROOT / "docs" / "api.md"

HEADER = """\
# API reference

*Generated by `scripts/generate_api_docs.py` — do not edit by hand.*
*Regenerate with `PYTHONPATH=src python scripts/generate_api_docs.py`.*
"""


def _docstring(obj) -> str:
    return inspect.cleandoc(pydoc.getdoc(obj) or "*(no docstring)*")


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _public_members(module):
    """Classes and functions defined in (or exported by) ``module``."""
    exported = getattr(module, "__all__", None)
    names = exported if exported is not None else sorted(vars(module))
    members = []
    for name in names:
        if name.startswith("_"):
            continue
        obj = getattr(module, name, None)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if exported is None and getattr(obj, "__module__", None) != module.__name__:
            continue
        members.append((name, obj))
    return members


def _render_class(name: str, cls) -> list:
    lines = [f"### class `{name}{_signature(cls)}`", "", _docstring(cls), ""]
    for method_name, method in sorted(vars(cls).items()):
        if method_name.startswith("_"):
            continue
        unwrapped = method
        if isinstance(method, (classmethod, staticmethod)):
            unwrapped = method.__func__
        if isinstance(method, property):
            doc = _docstring(method.fget) if method.fget else "*(no docstring)*"
            lines += [f"#### property `{method_name}`", "", doc, ""]
            continue
        if not inspect.isfunction(unwrapped):
            continue
        lines += [
            f"#### `{method_name}{_signature(unwrapped)}`",
            "",
            _docstring(unwrapped),
            "",
        ]
    return lines


def render() -> str:
    sections = [HEADER]
    for module_name, title in MODULES:
        module = importlib.import_module(module_name)
        lines = [f"## {title}", "", _docstring(module), ""]
        for name, obj in _public_members(module):
            if inspect.isclass(obj):
                lines += _render_class(name, obj)
            else:
                lines += [f"### `{name}{_signature(obj)}`", "", _docstring(obj), ""]
        sections.append("\n".join(lines).rstrip() + "\n")
    return "\n".join(sections)


def main() -> int:
    rendered = render()
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(rendered)
    print(f"wrote {OUTPUT.relative_to(REPO_ROOT)} ({len(rendered.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
