"""``probe-mode-discipline``: train/eval toggles and grad state must restore.

PR 4's meta-reweighter probed validation loss by calling ``model.eval()``
and never switching back — every subsequent training step ran with dropout
frozen and the reweighting silently converged to uniform weights.  The fix
(``ExampleReweighter._probe_mode``) snapshots ``training`` and restores it
in ``finally``.  This rule enforces that shape everywhere:

* a function that *enters* training/eval mode (``x.train()`` /
  ``x.train(True)``) must restore mode on the same receiver inside a
  ``finally`` block (or an equivalent restore call such as ``x.eval()`` /
  ``x.train(was_training)`` placed in ``finally``);
* ``no_grad()`` must be used as a context manager (``with no_grad():``),
  never called bare — a bare call constructs the guard without ever
  restoring the flag;
* the thread-local ``_grad_state`` may only be touched by its owner,
  ``repro/nn/tensor.py``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from ..core import FileContext, Finding, Rule, enclosing_symbol, register, walk_scope

#: Functions/methods named like mode switches themselves (Module.train,
#: Module.eval definitions) are the mechanism, not a use of it.
EXEMPT_FUNCTION_NAMES = frozenset({"train", "eval"})


def _toggle_kind(call: ast.Call) -> Optional[str]:
    """Classify a ``<recv>.train(...)`` / ``<recv>.eval()`` call.

    Returns ``"entry"`` (switches mode away from a known-restored state),
    ``"restore"`` (returns to eval), ``"snapshot"`` (``train(was_training)``
    — a restore only if it actually sits in a ``finally`` block, else just
    another unprotected toggle), or ``None`` when the call is not a mode
    toggle at all (e.g. ``pipeline.train(pairs, epochs=3)`` — a trainer
    entry point that happens to share the name).
    """
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "eval":
        if call.args or call.keywords:
            return None
        return "restore"
    if func.attr != "train":
        return None
    if call.keywords or len(call.args) > 1:
        return None  # trainer invocation, not a mode flag
    if not call.args:
        return "entry"
    arg = call.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, bool):
        return "entry" if arg.value else "restore"
    if isinstance(arg, (ast.Name, ast.Attribute, ast.UnaryOp)):
        return "snapshot"  # train(was_training)
    return None  # train(pairs) etc.


def _receiver(call: ast.Call) -> str:
    func = call.func
    assert isinstance(func, ast.Attribute)
    try:
        return ast.unparse(func.value)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return "<receiver>"


def _finally_lines(func: ast.AST) -> Set[int]:
    """All line numbers inside ``finally`` blocks of ``func``."""
    lines: Set[int] = set()
    for node in walk_scope(func):
        if isinstance(node, ast.Try):
            for stmt in node.finalbody:
                for sub in ast.walk(stmt):
                    line = getattr(sub, "lineno", None)
                    if line is not None:
                        lines.add(line)
    return lines


@register
class ProbeModeDisciplineRule(Rule):
    """Mode toggles must restore in ``finally``; grad state stays owned.

    The compliant shape (from ``repro.meta.reweight``)::

        was_training = self.model.training
        self.model.eval()
        try:
            yield
        finally:
            self.model.train(was_training)
    """

    name = "probe-mode-discipline"
    description = (
        "training/eval toggles and no_grad must restore state via context "
        "manager or try/finally"
    )
    paths = ("src/repro/",)

    #: Module that owns the thread-local grad flag and may mutate it.
    GRAD_STATE_OWNER = "src/repro/nn/tensor.py"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._check_bare_no_grad(ctx)
        yield from self._check_grad_state_ownership(ctx)
        for func, qualname in ctx.scoped_functions():
            short_name = qualname.rsplit(".", 1)[-1]
            if short_name in EXEMPT_FUNCTION_NAMES:
                continue
            yield from self._check_function(ctx, func, qualname)

    # ------------------------------------------------------------------
    def _check_function(
        self, ctx: FileContext, func: ast.AST, qualname: str
    ) -> Iterator[Finding]:
        toggles: List[Tuple[ast.Call, str, str]] = []  # (call, kind, receiver)
        for node in walk_scope(func):
            if isinstance(node, ast.Call):
                kind = _toggle_kind(node)
                if kind is not None:
                    toggles.append((node, kind, _receiver(node)))

        finally_lines = _finally_lines(func)
        # A snapshot restore (train(was_training)) outside finally is just
        # another happy-path toggle — the PR 4 shape — so it *demands* a
        # real finally restore rather than providing one.
        resolved = [
            (call, ("restore" if call.lineno in finally_lines else "entry")
             if kind == "snapshot" else kind, recv)
            for call, kind, recv in toggles
        ]
        if not any(kind == "entry" for _, kind, _ in resolved):
            return
        restored = {
            recv for call, kind, recv in resolved
            if kind == "restore" and call.lineno in finally_lines
        }
        for call, kind, recv in resolved:
            if kind != "entry" or recv in restored:
                continue
            yield Finding(
                path=ctx.path, line=call.lineno, column=call.col_offset,
                rule=self.name, symbol=qualname,
                message=(
                    f"{recv}.train(...) switches mode but {recv} is never "
                    f"restored in a finally block; wrap the probe in "
                    f"try/finally or a context manager (see "
                    f"repro.meta.reweight.ExampleReweighter._probe_mode)"
                ),
            )

    # ------------------------------------------------------------------
    def _check_bare_no_grad(self, ctx: FileContext) -> Iterator[Finding]:
        with_items: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_items.add(id(item.context_expr))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else ""
            )
            if name != "no_grad" or id(node) in with_items:
                continue
            # Inside repro.nn.tensor the class body itself is fine.
            if ctx.path == self.GRAD_STATE_OWNER:
                continue
            yield Finding(
                path=ctx.path, line=node.lineno, column=node.col_offset,
                rule=self.name,
                symbol=enclosing_symbol(ctx.tree, node),
                message=(
                    "no_grad() called outside a `with` statement; the grad "
                    "flag is only restored by the context manager's __exit__"
                ),
            )

    def _check_grad_state_ownership(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.path == self.GRAD_STATE_OWNER:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Assign, ast.AugAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "_grad_state"
                ):
                    yield Finding(
                        path=ctx.path, line=node.lineno, column=node.col_offset,
                        rule=self.name,
                        symbol=enclosing_symbol(ctx.tree, node),
                        message=(
                            f"direct write to {target.value.id}.{target.attr}; "
                            f"thread-local grad state is owned by "
                            f"repro.nn.tensor — use no_grad()"
                        ),
                    )
