"""``inference-dtype``: no hard-coded float64 in serving/decode hot paths.

The serving and generation paths honour the thread-local
``compute_dtype`` switch (``repro.nn.tensor.compute_dtype``): replicas run
``float32`` inference for throughput.  A single hard-coded
``np.float64`` / ``"float64"`` in a hot path silently upcasts every array
that flows through it — the greedy-decode step did exactly that, casting
the logit slice to float64 on *every* step of every request regardless of
the active compute dtype.

Correct patterns::

    dtype = active_compute_dtype()          # follow the switch
    step = np.asarray(row, dtype=memory.data.dtype)   # inherit upstream

Deliberate float64 (e.g. latency statistics, loss accumulation) takes an
inline ``# repro: disable=inference-dtype`` with the reason in the comment
line above it.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..core import FileContext, Finding, Rule, enclosing_symbol, register


def _docstring_nodes(tree: ast.AST) -> Set[int]:
    """ids of Constant nodes that are docstrings (never dtype literals)."""
    out: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = getattr(node, "body", [])
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                out.add(id(body[0].value))
    return out


@register
class InferenceDtypeRule(Rule):
    """Flag ``np.float64`` attributes and ``"float64"`` string literals.

    Scoped to the inference hot paths (``repro.serving``,
    ``repro.generation``); training code may accumulate in float64 freely.
    """

    name = "inference-dtype"
    description = (
        "no hard-coded float64 in serving/decode hot paths; use the "
        "compute_dtype switch or inherit the upstream array dtype"
    )
    paths = ("src/repro/serving/", "src/repro/generation/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        docstrings = _docstring_nodes(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and node.attr == "float64":
                yield self._finding(ctx, node, "np.float64")
            elif (
                isinstance(node, ast.Constant)
                and node.value == "float64"
                and id(node) not in docstrings
            ):
                yield self._finding(ctx, node, '"float64"')

    def _finding(self, ctx: FileContext, node: ast.AST, literal: str) -> Finding:
        return Finding(
            path=ctx.path, line=node.lineno, column=node.col_offset,
            rule=self.name,
            symbol=enclosing_symbol(ctx.tree, node),
            message=(
                f"hard-coded {literal} in an inference hot path upcasts "
                f"arrays regardless of the active compute dtype; use "
                f"active_compute_dtype() or inherit the input's dtype"
            ),
        )
