"""Core of the project-native lint framework: findings, rules, the engine.

The runtime bugs this repo has shipped were never "typos a generic linter
catches" — they were violations of *project invariants*: a process-global
grad flag mutated from replica scheduler threads, a ``PipelineStats``
counter updated outside its lock, probes running with dropout active.
Generic tools cannot know those invariants; this framework encodes them as
:class:`Rule` subclasses that walk each file's AST with full knowledge of
the repo's conventions (``self._lock`` guards, ``threading.local`` state,
future settlement in ``repro.serving``).

Pieces:

* :class:`Finding` — one ``file:line:rule`` diagnostic.
* :class:`Rule` — base class; subclasses declare a ``name``, the path
  prefixes they apply to, and a ``check(ctx)`` generator.  Register with
  the :func:`register` decorator.
* :class:`FileContext` — parsed AST + inline suppression table for one
  file.  ``# repro: disable=<rule>[,<rule>...]`` on a line suppresses
  findings anchored to that line; it is the only way to excuse one, and
  the reason goes in the comment line above it.
* :class:`LintConfig` / :func:`run_lint` / :func:`lint_source` — the
  engine: for each file, parse once, run the rules whose ``paths`` match,
  drop suppressed findings, report suppressions that absorbed nothing.

Example::

    from repro.analysis import run_lint

    result = run_lint(["src"])
    for finding in result.findings:
        print(finding.describe())        # path:line: rule: message
    assert result.ok
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

#: Inline suppression syntax: a comment of the form
#: ``code  # repro: disable=rule-a,rule-b`` (same line).  Anchored to the
#: comment start so prose *mentioning* the syntax — like this very
#: paragraph — does not register a suppression.
SUPPRESSION_RE = re.compile(r"\A#\s*repro:\s*disable=([A-Za-z0-9_,\- ]+)")

#: Pseudo-rule name attached to findings for files that fail to parse.
SYNTAX_ERROR_RULE = "syntax-error"


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: where, which rule, and what is wrong.

    ``symbol`` names what the finding is about (the enclosing scope, e.g.
    ``PipelineStats.reset``, or the offending name) so tests and readers
    can match on something that survives line-number drift.
    """

    path: str
    line: int
    rule: str
    message: str
    column: int = 0
    symbol: str = ""

    def describe(self) -> str:
        """The canonical ``path:line: rule: message`` diagnostic line."""
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def _parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule names disabled on that line.

    Comments are found with :mod:`tokenize` (not a regex over raw lines) so
    a ``# repro: disable=...`` *inside a string literal* never suppresses
    anything.  Unterminated files fall back to whatever tokens parsed.
    """
    table: Dict[int, Set[str]] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = SUPPRESSION_RE.search(token.string)
            if match is None:
                continue
            names = {part.strip() for part in match.group(1).split(",") if part.strip()}
            table.setdefault(token.start[0], set()).update(names)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return table


class FileContext:
    """Everything a rule needs about one file: its AST and suppressions.

    ``path`` is the repo-relative posix path rules scope on (e.g.
    ``src/repro/serving/cluster.py``).
    """

    def __init__(self, source: str, path: str) -> None:
        self.path = Path(path).as_posix()
        self.tree = ast.parse(source)
        self.suppressions = _parse_suppressions(source)

    def suppressed(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is disabled on ``line`` via an inline comment."""
        names = self.suppressions.get(line)
        if not names:
            return False
        return "all" in names or rule in names

    def scoped_functions(self) -> Iterator[Tuple[ast.AST, str]]:
        """Yield every function/method with its dotted qualname."""
        for node, qualname in iter_scoped_nodes(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node, qualname


def iter_scoped_nodes(tree: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """Depth-first (node, qualname) pairs for classes and functions.

    Qualnames are dotted (``Router.submit``, ``Outer.Inner.method``) and
    anchor findings to symbols that survive line-number drift.
    """

    def visit(node: ast.AST, prefix: str) -> Iterator[Tuple[ast.AST, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}" if prefix else child.name
                yield child, qualname
                yield from visit(child, qualname)
            else:
                yield from visit(child, prefix)

    yield from visit(tree, "")


def walk_scope(func: ast.AST) -> Iterator[ast.AST]:
    """Like :func:`ast.walk` but stops at nested function/lambda scopes.

    Rules that analyse one function at a time pair this with
    :meth:`FileContext.scoped_functions` so code inside a nested ``def`` is
    attributed to the nested scope, not double-reported for both.
    """
    stack: List[ast.AST] = [func]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.append(child)


def enclosing_symbol(tree: ast.AST, target: ast.AST) -> str:
    """Qualname of the innermost class/function containing ``target``.

    Linear in the tree size — fine for a linter that walks each file a
    handful of times.  Returns ``""`` for module-level nodes.
    """
    best = ""
    target_line = getattr(target, "lineno", None)
    if target_line is None:
        return best
    for node, qualname in iter_scoped_nodes(tree):
        end = getattr(node, "end_lineno", None)
        if node.lineno <= target_line and (end is None or target_line <= end):
            best = qualname  # deeper scopes visited later overwrite shallower
    return best


# ----------------------------------------------------------------------
# Rules & registry
# ----------------------------------------------------------------------
class Rule:
    """Base class for lint rules.

    Subclasses set ``name`` (kebab-case, used in diagnostics and
    suppressions), ``description`` (one line, shown by ``--list-rules``),
    and ``paths`` (repo-relative posix prefixes the rule applies to).
    ``check`` yields :class:`Finding` objects; the engine filters inline
    suppressions afterwards, so rules never need to consult them.
    """

    name: str = ""
    description: str = ""
    paths: Tuple[str, ...] = ("src/repro/",)

    def applies_to(self, ctx: FileContext) -> bool:
        # Prefix match for repo-relative paths; substring-at-segment match
        # so absolute paths (files linted outside the repo checkout, e.g.
        # seeded copies under /tmp in tests) still hit the right rules.
        return any(
            ctx.path.startswith(prefix) or f"/{prefix}" in ctx.path
            for prefix in self.paths
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a :class:`Rule` subclass to the registry."""
    if not cls.name:
        raise ValueError(f"rule class {cls.__name__} must set a name")
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def registered_rules() -> Dict[str, Type[Rule]]:
    """Snapshot of the rule registry (name -> class)."""
    return dict(_REGISTRY)


@register
class UnusedSuppressionRule(Rule):
    """Flag ``# repro: disable=<rule>`` comments that suppress nothing.

    Stale suppressions rot silently: the code they excused gets fixed or
    deleted and the comment keeps granting a blanket waiver to whatever
    lands on that line next.  The engine tracks which suppressions absorbed
    a finding and emits one finding per dead entry; this class only carries
    the name/description/scope — the detection lives in the per-file pass
    because it needs every other rule's findings for the file.
    """

    name = "unused-suppression"
    description = "inline `repro: disable` comment that suppresses nothing"
    paths = ("src/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())


@dataclass
class LintConfig:
    """Which rules run (``enabled=None``: every registered rule) and the
    root that reported paths are made relative to."""

    enabled: Optional[Sequence[str]] = None
    project_root: Optional[Path] = None

    def build_rules(self) -> List[Rule]:
        registry = registered_rules()
        if self.enabled is None:
            return [registry[name]() for name in sorted(registry)]
        unknown = sorted(set(self.enabled) - set(registry))
        if unknown:
            raise ValueError(
                f"unknown rule(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(registry))}"
            )
        return [registry[name]() for name in self.enabled]


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
@dataclass
class LintResult:
    """Outcome of one lint pass: the findings nothing excused, and how
    many an inline suppression absorbed."""

    findings: List[Finding]
    files: int = 0
    elapsed_seconds: float = 0.0
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def files_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.files / self.elapsed_seconds


def iter_python_files(paths: Iterable[object]) -> List[Path]:
    """Every ``.py`` file under ``paths``, sorted, caches/hidden dirs skipped."""
    out: Set[Path] = set()
    for entry in paths:
        path = Path(entry)
        if path.is_file() and path.suffix == ".py":
            out.add(path)
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                parts = candidate.parts
                if any(part == "__pycache__" or part.startswith(".") for part in parts):
                    continue
                out.add(candidate)
    return sorted(out)


def _relative_posix(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _lint_file(ctx: FileContext, rules: Sequence[Rule]) -> Tuple[List[Finding], int]:
    """One file through every rule whose ``paths`` match it.

    Returns the findings no inline comment absorbed — including, when
    ``unused-suppression`` is among ``rules``, one per suppression that
    absorbed nothing — and the number that were absorbed.
    """
    findings: List[Finding] = []
    used_lines: Set[int] = set()
    suppressed = 0
    report_unused = False
    for rule in rules:
        if not rule.applies_to(ctx):
            continue
        if isinstance(rule, UnusedSuppressionRule):
            report_unused = True
        for finding in rule.check(ctx):
            if ctx.suppressed(finding.rule, finding.line):
                used_lines.add(finding.line)
                suppressed += 1
            else:
                findings.append(finding)
    if report_unused:
        for line, names in sorted(ctx.suppressions.items()):
            if line in used_lines:
                continue
            listed = ",".join(sorted(names))
            findings.append(Finding(
                path=ctx.path, line=line, rule=UnusedSuppressionRule.name,
                message=(
                    f"suppression `repro: disable={listed}` never fires; "
                    "remove the stale comment"
                ),
                symbol=f"disable={listed}",
            ))
    return findings, suppressed


def lint_source(
    source: str, path: str, config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Lint one in-memory source blob as if it lived at ``path``.

    The workhorse of the rule test-suite: fixture snippets are linted
    against synthetic repo paths so each rule's path scoping applies
    exactly as it would on disk.  Syntax errors propagate — a fixture that
    does not parse is a broken test, not a lint finding.
    """
    rules = (config or LintConfig()).build_rules()
    return sorted(_lint_file(FileContext(source, path), rules)[0])


def run_lint(paths: Sequence[object], config: Optional[LintConfig] = None) -> LintResult:
    """Lint every python file under ``paths``.

    Files that fail to parse produce a single :data:`SYNTAX_ERROR_RULE`
    finding instead of aborting the run.  Timing covers the whole pass
    (file IO + parse + every rule) so the reported seconds reflect what CI
    actually pays.
    """
    config = config or LintConfig()
    root = config.project_root if config.project_root is not None else Path.cwd()
    rules = config.build_rules()
    files = iter_python_files(paths)

    started = time.perf_counter()
    findings: List[Finding] = []
    suppressed = 0
    for file_path in files:
        rel = _relative_posix(file_path, root)
        try:
            ctx = FileContext(file_path.read_text(encoding="utf-8"), rel)
        except SyntaxError as error:
            findings.append(Finding(
                path=rel, line=error.lineno or 1, rule=SYNTAX_ERROR_RULE,
                message=f"file does not parse: {error.msg}",
            ))
            continue
        new, absorbed = _lint_file(ctx, rules)
        findings += new
        suppressed += absorbed
    elapsed = time.perf_counter() - started
    return LintResult(
        findings=sorted(findings), files=len(files),
        elapsed_seconds=elapsed, suppressed=suppressed,
    )
