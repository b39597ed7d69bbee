"""``bounded-wait``: blocking primitives in serving must time out.

Distilled from the PR 8 scheduler hang: ``LinkingService._run`` parked in
an unbounded ``self._work_ready.wait()``, so one missed wakeup (a frozen
fault-injected replica swallowing the notify) stranded the scheduler
forever — drain, close and the supervisor all stalled behind it.  The fix
was a heartbeat timeout; this rule makes the pattern a lint error so the
next unbounded park is caught at review time instead of as a wedged
cluster.

Scope is the concurrent tier (``repro.serving``) — elsewhere a bare
``join()`` on a short-lived helper is idiomatic and not worth the noise.
A justified exception takes an inline ``# repro: disable=bounded-wait``
with its reason in the comment line above it, like every other rule.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import FileContext, Finding, Rule, register

#: Method names that park the calling thread until another thread acts.
BLOCKING_METHODS = frozenset({"wait", "join", "result"})


@register
class BoundedWaitRule(Rule):
    """``Event.wait`` / ``Condition.wait`` / ``Thread.join`` /
    ``Future.result`` calls must bound their blocking time.

    A call ``<obj>.wait()`` / ``.join()`` / ``.result()`` is flagged when
    it passes neither a positional argument (the timeout slot of all four
    primitives) nor a ``timeout=`` keyword.  The receiver's type is not
    resolved — any attribute call with one of these names counts, which is
    exactly the conservatism wanted in the concurrent tier; a justified
    unbounded wait is suppressed inline with its reason in a comment.
    """

    name = "bounded-wait"
    description = "blocking waits in repro.serving must pass a timeout"
    paths = ("src/repro/serving/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in BLOCKING_METHODS:
                continue
            if node.args:  # positional timeout (or *args we can't see into)
                continue
            if any(keyword.arg == "timeout" for keyword in node.keywords):
                continue
            receiver = (
                func.value.id if isinstance(func.value, ast.Name)
                else ast.unparse(func.value) if hasattr(ast, "unparse")
                else "<expr>"
            )
            yield Finding(
                path=ctx.path, line=node.lineno, column=node.col_offset,
                rule=self.name, symbol=f"{receiver}.{func.attr}",
                message=(
                    f"unbounded blocking call {receiver}.{func.attr}(); a "
                    f"missed wakeup parks this thread forever — pass a "
                    f"timeout (heartbeat loops re-check their condition, "
                    f"see LinkingService._run)"
                ),
            )
