"""Concurrency rules: ``thread-local-state`` and ``lock-discipline``.

Both rules are distilled from shipped bugs:

* PR 6's grad flag was a process-global boolean mutated via ``global`` from
  every replica scheduler thread — interleaved ``no_grad`` enter/exit pairs
  restored each other's snapshots and disabled gradients process-wide
  (78 test failures).  ``thread-local-state`` bans the pattern outright in
  ``repro.nn`` / ``repro.serving``: module-level state there must live in
  ``threading.local()``.
* PR 5's ``PipelineStats`` guarded its latency window with ``_lock`` but
  mutated its counters bare; a concurrent ``reset()`` could resurrect stale
  stage totals.  ``lock-discipline`` requires that once an attribute is
  mutated under ``with self._lock`` anywhere in a class, *every* mutation
  of it happens under a lock.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core import FileContext, Finding, Rule, register

#: Method calls that mutate common containers in place.
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "insert", "pop", "popleft", "popitem",
    "remove", "clear", "add", "discard", "update", "setdefault",
})

#: ``threading`` factories whose product counts as "a lock" — ``with`` on a
#: Condition acquires its underlying lock, so it guards state too.
LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition"})

#: Methods where unguarded attribute writes are fine: construction and
#: pickle plumbing run before (or without) any concurrent observer.
EXEMPT_METHODS = frozenset({
    "__init__", "__new__", "__post_init__", "__getstate__", "__setstate__",
    "__del__", "__init_subclass__",
})


def _is_threading_local(value: ast.AST) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Attribute) and func.attr == "local":
        return True
    return isinstance(func, ast.Name) and func.id == "local"


def _is_lock_factory(value: ast.AST) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else ""
    )
    if name in LOCK_FACTORIES:
        return True
    # Dataclass style: field(default_factory=threading.Lock)
    if name == "field":
        for keyword in value.keywords:
            if keyword.arg == "default_factory":
                factory = keyword.value
                attr = factory.attr if isinstance(factory, ast.Attribute) else (
                    factory.id if isinstance(factory, ast.Name) else ""
                )
                if attr in LOCK_FACTORIES:
                    return True
    return False


@register
class ThreadLocalStateRule(Rule):
    """Module-level mutable flags in nn/serving must be thread-local.

    Two shapes are flagged:

    * a module-level name rebound via ``global`` inside any function — the
      exact process-global-flag pattern behind the PR 6 grad bug;
    * a module-level mutable container (dict/list/set/deque literal or
      constructor) mutated from function scope — the same hazard through
      aliasing rather than rebinding.

    ``threading.local()`` values are exempt: attribute writes on them are
    the sanctioned fix.  ``__all__``-style dunder names are ignored.
    """

    name = "thread-local-state"
    description = (
        "module-level mutable state in repro.nn/repro.serving must use "
        "threading.local()"
    )
    paths = ("src/repro/nn/", "src/repro/serving/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        module_state: Dict[str, ast.stmt] = {}
        for stmt in ctx.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                if name.startswith("__") and name.endswith("__"):
                    continue
                if _is_threading_local(value):
                    continue
                module_state[name] = stmt

        if not module_state:
            return

        rebound: Set[str] = set()
        mutated: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Global):
                rebound.update(n for n in node.names if n in module_state)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                # _CACHE[key] = value  /  _CACHE[key] += 1 inside a function
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in module_state
                        and node is not module_state.get(target.value.id)
                    ):
                        mutated.add(target.value.id)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATOR_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in module_state
                ):
                    mutated.add(func.value.id)

        # Module-level mutations (e.g. seeding a dict right after creating
        # it) are setup, not shared-state mutation: only count mutations
        # reachable from function scope.
        top_level_lines = set()
        for stmt in ctx.tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for sub in ast.walk(stmt):
                    line = getattr(sub, "lineno", None)
                    if line is not None:
                        top_level_lines.add(line)

        for name in sorted(rebound | mutated):
            stmt = module_state[name]
            if name in mutated and name not in rebound:
                # Verify at least one mutation happens outside module scope.
                if self._only_top_level_mutations(ctx, name, top_level_lines):
                    continue
                verb = "mutated from function scope"
            else:
                verb = "rebound via `global`"
            yield Finding(
                path=ctx.path, line=stmt.lineno, column=stmt.col_offset,
                rule=self.name, symbol=name,
                message=(
                    f"module-level state {name!r} is {verb}; serving threads "
                    f"share this process-wide — store it in threading.local() "
                    f"(see repro.nn.tensor._grad_state)"
                ),
            )

    @staticmethod
    def _only_top_level_mutations(
        ctx: FileContext, name: str, top_level_lines: Set[int]
    ) -> bool:
        for node in ast.walk(ctx.tree):
            is_mutation = False
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                is_mutation = any(
                    isinstance(t, ast.Subscript)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == name
                    for t in targets
                )
            elif isinstance(node, ast.Call):
                func = node.func
                is_mutation = (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATOR_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id == name
                )
            if is_mutation and getattr(node, "lineno", None) not in top_level_lines:
                return False
        return True


@register
class LockDisciplineRule(Rule):
    """Guarded attributes must always be mutated under the class's lock.

    For every class owning a lock attribute (``self._lock =
    threading.Lock()`` in a method, or a dataclass field built from
    ``threading.Lock``/``RLock``/``Condition``), the rule computes the set
    of *guarded* attributes — those mutated at least once inside a ``with
    self.<lock>:`` block — and flags any mutation of a guarded attribute
    outside such a block.

    Conventions honoured: ``__init__``/pickle dunders are exempt (no
    concurrent observer exists yet), and methods whose name ends in
    ``_locked`` are assumed to run with the lock already held by the
    caller (the ``PipelineStats._total_seconds_locked`` convention) — a
    promise the rule holds the class's other methods to: calling
    ``self.<name>_locked()`` with no class lock held is a finding too.
    """

    name = "lock-discipline"
    description = (
        "attributes mutated under `with self._lock` must never be mutated "
        "outside it"
    )
    paths = ("src/repro/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    # ------------------------------------------------------------------
    def _check_class(self, ctx: FileContext, cls: ast.ClassDef) -> Iterator[Finding]:
        lock_attrs = self._lock_attributes(cls)
        if not lock_attrs:
            return

        # (attr, node, method, held) mutation events across all methods.
        events: List[Tuple[str, ast.AST, str, bool]] = []
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            assume_held = stmt.name.endswith("_locked")
            for node, held in self._walk_held(stmt, lock_attrs, assume_held):
                for attr in _mutated_self_attrs(node):
                    events.append((attr, node, stmt.name, held))
                callee = _self_locked_call(node)
                if callee is None or held or stmt.name in EXEMPT_METHODS:
                    continue
                # The `_locked` suffix promises the caller already holds
                # the lock; a `*_locked` caller inherits the promise from
                # *its* caller (assume_held), everyone else must keep it.
                yield Finding(
                    path=ctx.path, line=node.lineno, column=node.col_offset,
                    rule=self.name, symbol=f"{cls.name}.{stmt.name}",
                    message=(
                        f"{callee}() promises the caller holds a lock "
                        f"(`_locked` suffix) but {cls.name}.{stmt.name} "
                        f"calls it with no lock held"
                    ),
                )

        guarded = {
            attr for attr, _, _, held in events
            if held and attr not in lock_attrs
        }
        for attr, node, method, held in events:
            if held or method in EXEMPT_METHODS or attr not in guarded:
                continue
            yield Finding(
                path=ctx.path, line=node.lineno, column=node.col_offset,
                rule=self.name, symbol=f"{cls.name}.{method}",
                message=(
                    f"attribute self.{attr} is guarded by "
                    f"{'/'.join(sorted(lock_attrs))} elsewhere in {cls.name} "
                    f"but mutated here outside `with self.<lock>`"
                ),
            )

    @staticmethod
    def _lock_attributes(cls: ast.ClassDef) -> Set[str]:
        locks: Set[str] = set()
        for stmt in cls.body:
            # Dataclass field: _lock: threading.Lock = field(default_factory=...)
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if stmt.value is not None and _is_lock_factory(stmt.value):
                    locks.add(stmt.target.id)
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and _is_lock_factory(node.value):
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        locks.add(attr)
        return locks

    def _walk_held(
        self, node: ast.AST, lock_attrs: Set[str], held: bool,
    ) -> Iterator[Tuple[ast.AST, bool]]:
        """Every node under ``node``, once, with whether a class lock is
        held there (inside a ``with self.<lock>:`` block, or ``held``)."""
        for child in ast.iter_child_nodes(node):
            child_held = held or (
                isinstance(child, ast.With)
                and any(
                    _self_attr(item.context_expr) in lock_attrs
                    for item in child.items
                )
            )
            yield child, child_held
            yield from self._walk_held(child, lock_attrs, child_held)


def _self_attr(expr: ast.AST) -> Optional[str]:
    """``X`` for the expression ``self.X``, else ``None``."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def _self_locked_call(node: ast.AST) -> Optional[str]:
    """``name`` when ``node`` is the call ``self.<name>_locked(...)``."""
    if isinstance(node, ast.Call):
        name = _self_attr(node.func)
        if name is not None and name.endswith("_locked"):
            return name
    return None


def _mutated_self_attrs(node: ast.AST) -> List[str]:
    """Attributes of ``self`` that ``node`` itself assigns, deletes or
    mutates in place (``self.X = ...``, ``self.X[k] += 1``,
    ``del self.X[k]``, ``self.X.append(...)``)."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = node.targets
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in MUTATOR_METHODS
    ):
        targets = [node.func.value]
    else:
        return []
    attrs = []
    for target in targets:
        if isinstance(target, ast.Subscript):
            target = target.value
        attr = _self_attr(target)
        if attr is not None:
            attrs.append(attr)
    return attrs
