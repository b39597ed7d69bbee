"""``future-hygiene``: every Future in ``repro.serving`` must settle safely.

Three sub-checks, all drawn from the router/replica code's hard-won
conventions:

* **settle-guard** — ``fut.set_result`` / ``fut.set_exception`` raise
  ``InvalidStateError`` if the future was already cancelled or settled by
  a racing path (client abort vs. replica completion).  Any settle on a
  future that may be shared must sit inside a ``try`` whose handler
  catches ``InvalidStateError`` (or a broader exception class).  The one
  sanctioned exception: a *fresh local* future — created in this function
  via ``Future()`` and not yet escaped to any other code — cannot race,
  so it may settle bare (``Router.submit`` does this before enqueuing).
* **orphan-future** — a future created locally, never settled and never
  handed to anyone, can only leave callers hanging on ``.result()``.
* **callback-raise** — ``add_done_callback`` callbacks run on the thread
  that settles the future; an exception thrown there is swallowed by
  ``concurrent.futures`` (logged at best) and kills the settle path's
  invariants.  Callbacks resolved one level deep must contain no ``raise``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core import FileContext, Finding, Rule, enclosing_symbol, register, walk_scope

SETTLE_METHODS = frozenset({"set_result", "set_exception"})

#: Exception names that count as guarding a settle.  Broad handlers
#: (``Exception``) obviously cover ``InvalidStateError`` too.
GUARD_EXCEPTIONS = frozenset({
    "InvalidStateError", "CancelledError", "Exception", "BaseException",
})


def _is_future_ctor(value: ast.AST) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else ""
    )
    return name == "Future"


def _guarding_try_lines(func: ast.AST) -> Set[int]:
    """Lines inside ``try`` bodies whose handlers catch a guard exception."""
    lines: Set[int] = set()
    for node in walk_scope(func):
        if not isinstance(node, ast.Try):
            continue
        if not any(_handler_guards(h) for h in node.handlers):
            continue
        for stmt in node.body:
            for sub in ast.walk(stmt):
                line = getattr(sub, "lineno", None)
                if line is not None:
                    lines.add(line)
    return lines


def _handler_guards(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True  # bare except
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    for expr in types:
        name = expr.id if isinstance(expr, ast.Name) else (
            expr.attr if isinstance(expr, ast.Attribute) else ""
        )
        if name in GUARD_EXCEPTIONS:
            return True
    return False


@register
class FutureHygieneRule(Rule):
    """Settles guarded or provably race-free; callbacks never raise."""

    name = "future-hygiene"
    description = (
        "Futures in repro.serving must settle under an InvalidStateError "
        "guard (or before escaping) and done-callbacks must not raise"
    )
    paths = ("src/repro/serving/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func, qualname in ctx.scoped_functions():
            yield from self._check_settles(ctx, func, qualname)
        yield from self._check_callbacks(ctx)

    # ------------------------------------------------------------------
    # settle-guard + orphan-future
    # ------------------------------------------------------------------
    def _check_settles(
        self, ctx: FileContext, func: ast.AST, qualname: str
    ) -> Iterator[Finding]:
        # Fresh local futures: name -> creation (lineno, col).
        created: Dict[str, Tuple[int, int]] = {}
        for node in walk_scope(func):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_future_ctor(
                getattr(node, "value", None)
            ):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        created[target.id] = (node.lineno, node.col_offset)

        # Every Name-load event on a created future, ordered by position:
        # method calls on the name are classified; any other load escapes it.
        events: Dict[str, List[Tuple[Tuple[int, int], str, ast.AST]]] = {
            name: [] for name in created
        }
        settle_calls: List[Tuple[ast.Call, str, Optional[str]]] = []
        callish: Set[int] = set()
        for node in walk_scope(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                recv = node.func.value
                if isinstance(recv, ast.Name) and recv.id in created:
                    callish.add(id(recv))
                    kind = (
                        "settle" if node.func.attr in SETTLE_METHODS | {"cancel"}
                        else "method"
                    )
                    events[recv.id].append(
                        ((node.lineno, node.col_offset), kind, node)
                    )
                if node.func.attr in SETTLE_METHODS:
                    receiver = (
                        recv.id if isinstance(recv, ast.Name) else None
                    )
                    settle_calls.append((node, node.func.attr, receiver))
        for node in walk_scope(func):
            if (
                isinstance(node, ast.Name)
                and node.id in created
                and isinstance(node.ctx, ast.Load)
                and id(node) not in callish
            ):
                events[node.id].append(
                    ((node.lineno, node.col_offset), "escape", node)
                )

        guarded_lines = _guarding_try_lines(func)

        escaped_before: Dict[str, Set[int]] = {}
        for name, evs in events.items():
            evs.sort(key=lambda item: item[0])
            seen_escape = False
            settled_lines: Set[int] = set()
            for pos, kind, node in evs:
                if kind == "escape":
                    seen_escape = True
                elif kind == "settle" and seen_escape:
                    settled_lines.add(pos[0])
            escaped_before[name] = settled_lines

        for call, method, receiver in settle_calls:
            if call.lineno in guarded_lines:
                continue
            if (
                receiver is not None
                and receiver in created
                and call.lineno not in escaped_before.get(receiver, set())
            ):
                continue  # fresh local future, no escape yet: race-free
            yield Finding(
                path=ctx.path, line=call.lineno, column=call.col_offset,
                rule=self.name, symbol=qualname,
                message=(
                    f"unguarded {method}() on a future that other code can "
                    f"reach; wrap in try/except InvalidStateError (a racing "
                    f"cancel/settle raises here)"
                ),
            )

        # Orphans: created, never escaped, never settled, never cancelled.
        for name, evs in events.items():
            if evs:
                continue
            line, col = created[name]
            yield Finding(
                path=ctx.path, line=line, column=col,
                rule=self.name, symbol=qualname,
                message=(
                    f"future {name!r} is created but never settled, "
                    f"cancelled, or handed off; waiters would hang forever"
                ),
            )

    # ------------------------------------------------------------------
    # callback-raise
    # ------------------------------------------------------------------
    def _check_callbacks(self, ctx: FileContext) -> Iterator[Finding]:
        defs: Dict[str, ast.AST] = {}
        for node, qualname in ctx.scoped_functions():
            defs[qualname.rsplit(".", 1)[-1]] = node

        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_done_callback"
                and node.args
            ):
                continue
            target = self._resolve_callback(node.args[0], defs)
            if target is None:
                continue
            for sub in ast.walk(target):
                if isinstance(sub, ast.Raise):
                    yield Finding(
                        path=ctx.path, line=node.lineno, column=node.col_offset,
                        rule=self.name,
                        symbol=enclosing_symbol(ctx.tree, node),
                        message=(
                            f"done-callback {getattr(target, 'name', '<lambda>')!r} "
                            f"contains a raise; exceptions in done-callbacks "
                            f"are swallowed by the executor — return an error "
                            f"via the future instead"
                        ),
                    )
                    break

    @staticmethod
    def _resolve_callback(
        arg: ast.AST, defs: Dict[str, ast.AST]
    ) -> Optional[ast.AST]:
        """Depth-1 resolution of the callback argument to a function def."""
        name: Optional[str] = None
        if isinstance(arg, ast.Lambda):
            # lambda done: self._on_inner_done(req, done) — follow the call.
            body = arg.body
            if isinstance(body, ast.Call):
                func = body.func
                if isinstance(func, ast.Attribute):
                    name = func.attr
                elif isinstance(func, ast.Name):
                    name = func.id
            if name is None:
                return arg  # lint the lambda body itself
        elif isinstance(arg, ast.Name):
            name = arg.id
        elif isinstance(arg, ast.Attribute):
            name = arg.attr
        if name is None:
            return None
        return defs.get(name)
