"""Core of the project-native lint framework: findings, rules, the engine.

The runtime bugs this repo has shipped were never "typos a generic linter
catches" — they were violations of *project invariants*: a process-global
grad flag mutated from replica scheduler threads, a ``PipelineStats``
counter updated outside its lock, probes running with dropout active.
Generic tools cannot know those invariants; this framework encodes them as
:class:`Rule` subclasses that walk each file's AST with full knowledge of
the repo's conventions (``self._lock`` guards, ``threading.local`` state,
the ``compute_dtype`` switch, future settlement in ``repro.serving``).

Pieces:

* :class:`Finding` — one ``file:line:rule`` diagnostic with a stable
  ``fingerprint`` used by the committed baseline.
* :class:`Rule` — base class; subclasses declare a ``name``, the path
  prefixes they apply to, and a ``check(ctx)`` generator.  Register with
  the :func:`register` decorator.
* :class:`FileContext` — parsed AST + inline suppression table for one
  file.  ``# repro: disable=<rule>[,<rule>...]`` on a line suppresses
  findings anchored to that line.
* :class:`LintConfig` / :func:`run_lint` / :func:`lint_source` — the
  engine: select rules, walk files, filter suppressions, partition
  against a :class:`~repro.analysis.baseline.Baseline`.

Example::

    from repro.analysis import run_lint, LintConfig, Baseline

    result = run_lint(["src"], baseline=Baseline.load("lint_baseline.json"))
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
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

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

    ``symbol`` names the enclosing scope (e.g. ``PipelineStats.reset``) and
    is what the baseline matches on — line numbers drift with every edit,
    symbols rarely do.
    """

    path: str
    line: int
    rule: str
    message: str
    column: int = 0
    symbol: str = ""
    #: Interprocedural witness: one "path:line: qualname — why" string per
    #: hop, caller first, blocking/raising/compute site last.  A tuple so
    #: the frozen/ordered dataclass stays hashable and sortable.
    chain: Tuple[str, ...] = ()

    def describe(self) -> str:
        """The canonical ``path:line: rule: message`` diagnostic line.

        Interprocedural findings append their call chain, one indented
        ``via`` line per hop, so the gate output reads like a sanitizer
        report instead of a bare file:line.
        """
        head = f"{self.path}:{self.line}: {self.rule}: {self.message}"
        if not self.chain:
            return head
        return head + "".join(f"\n    via {step}" for step in self.chain)

    def fingerprint(self) -> Tuple[str, str, str]:
        """Stable identity for baseline matching: (rule, path, symbol)."""
        return (self.rule, self.path, self.symbol or self.message)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule,
            "symbol": self.symbol,
            "message": self.message,
        }
        if self.chain:
            payload["chain"] = list(self.chain)
        return payload


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
    """Everything a rule needs about one file: AST, source, suppressions.

    ``path`` is the repo-relative posix path rules scope on (e.g.
    ``src/repro/serving/cluster.py``); ``project_root`` lets rules resolve
    project files such as ``pytest.ini``.
    """

    def __init__(
        self,
        source: str,
        path: str,
        project_root: Optional[Path] = None,
    ) -> None:
        self.source = source
        self.path = Path(path).as_posix()
        self.project_root = Path(project_root) if project_root is not None else None
        self.tree = ast.parse(source)
        self.lines = source.splitlines()
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

    Subclasses set ``name`` (kebab-case, used in diagnostics / suppressions
    / the baseline), ``description`` (one line, shown by ``--list-rules``),
    and ``default_paths`` (repo-relative posix prefixes the rule applies
    to).  ``check`` yields :class:`Finding` objects; the engine filters
    inline suppressions afterwards, so rules never need to consult them.
    """

    name: str = ""
    description: str = ""
    default_paths: Tuple[str, ...] = ("src/repro/",)

    def __init__(self, options: Optional[Mapping[str, object]] = None) -> None:
        self.options: Dict[str, object] = dict(options or {})

    def paths(self) -> Tuple[str, ...]:
        configured = self.options.get("paths")
        if configured is None:
            return self.default_paths
        return tuple(str(p) for p in configured)  # type: ignore[union-attr]

    def applies_to(self, ctx: FileContext) -> bool:
        # Prefix match for repo-relative paths; substring-at-segment match
        # so absolute paths (files linted outside the repo checkout, e.g.
        # seeded copies under /tmp in tests) still hit the right rules.
        return any(
            ctx.path.startswith(prefix) or f"/{prefix}" in ctx.path
            for prefix in self.paths()
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    # -- interprocedural hooks (PR 9) ----------------------------------
    def bind_project(self, project: object) -> None:
        """Receive the whole-project :class:`~repro.analysis.dataflow.
        ProjectContext` before any checks run.  Per-file rules may consult
        it from ``check``; pure project rules use ``check_project``."""
        self.project = project

    def check_project(self, project: object) -> Iterator[Finding]:
        """Whole-project pass, run once after every file's ``check``.

        The base implementation yields nothing; interprocedural rules (and
        per-file rules that also want a global pass) override it.
        """
        return iter(())

    def applies_to_path(self, path: str) -> bool:
        """Path-only variant of :meth:`applies_to` for project findings."""
        return any(
            path.startswith(prefix) or f"/{prefix}" in path
            for prefix in self.paths()
        )


class ProjectRule(Rule):
    """Base class for rules that only make sense over the whole project.

    Subclasses implement :meth:`check_project`; the per-file ``check`` is a
    no-op so the engine's file loop skips them cheaply.
    """

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())


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
    lands on that line next.  The engine tracks which suppressions actually
    absorbed a finding during the run and emits one finding per dead entry;
    this class only carries the name/description — the detection lives in
    :func:`run_lint` because it needs the whole run's suppression usage.
    """

    name = "unused-suppression"
    description = "inline `repro: disable` comment that suppresses nothing"
    default_paths = ("src/repro/", "src/", "tests/", "benchmarks/", "scripts/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())


@dataclass
class LintConfig:
    """Which rules run, with what options, against which project root.

    ``enabled=None`` means every registered rule; ``disabled`` subtracts.
    ``rule_options`` maps rule name -> options dict (e.g. ``{"paths":
    [...]}`` to re-scope a rule, or rule-specific knobs such as the marker
    rule's ``declared`` list).
    """

    enabled: Optional[Sequence[str]] = None
    disabled: Sequence[str] = ()
    rule_options: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    project_root: Optional[Path] = None
    #: Where per-file interprocedural summaries are cached between runs
    #: (content-hash keyed).  ``None`` disables the cache.
    cache_path: Optional[Path] = None

    def build_rules(self) -> List[Rule]:
        registry = registered_rules()
        if self.enabled is None:
            names = sorted(registry)
        else:
            unknown = sorted(set(self.enabled) - set(registry))
            if unknown:
                raise ValueError(
                    f"unknown rule(s) {', '.join(unknown)}; "
                    f"known: {', '.join(sorted(registry))}"
                )
            names = list(self.enabled)
        names = [name for name in names if name not in set(self.disabled)]
        return [registry[name](self.rule_options.get(name)) for name in names]


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
@dataclass
class LintResult:
    """Outcome of one lint pass.

    ``findings`` are *new* diagnostics (not covered by the baseline);
    ``baselined`` are grandfathered ones matched to baseline entries;
    ``stale`` are baseline entries that no longer match any finding (fixed
    code whose entry should be pruned with ``--baseline-update``).
    """

    findings: List[Finding]
    baselined: List[Finding] = field(default_factory=list)
    stale: List[object] = field(default_factory=list)
    files: int = 0
    elapsed_seconds: float = 0.0
    suppressed: int = 0
    # Interprocedural pass metrics (PR 9).
    callgraph_seconds: float = 0.0
    functions: int = 0
    call_edges: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def files_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.files / self.elapsed_seconds

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def counts_by_rule(self) -> Dict[str, int]:
        """New-finding counts per rule, for the failure summary table."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


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


def _relative_posix(path: Path, root: Optional[Path]) -> str:
    resolved = path.resolve()
    if root is not None:
        try:
            return resolved.relative_to(Path(root).resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def lint_sources(
    sources: Mapping[str, str],
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint a set of in-memory ``path -> source`` blobs as one project.

    The multi-file workhorse of the interprocedural test-suite: fixture
    modules are analysed together, so cross-module call chains (a serving
    entry point reaching nn compute two files away) resolve exactly as they
    would on disk.  Syntax errors propagate — a fixture that does not parse
    is a broken test, not a lint finding.
    """
    from .dataflow import ProjectContext  # local: avoids a core<->rules cycle

    config = config or LintConfig()
    if rules is None:
        rules = config.build_rules()
    ctxs: Dict[str, FileContext] = {}
    for path, source in sources.items():
        ctx = FileContext(source, path, project_root=config.project_root)
        ctxs[ctx.path] = ctx
    project = ProjectContext.build(
        [(ctx.path, ctx.source, ctx.tree) for ctx in ctxs.values()]
    )
    for rule in rules:
        rule.bind_project(project)
    findings: List[Finding] = []
    for ctx in ctxs.values():
        for rule in rules:
            if not rule.applies_to(ctx):
                continue
            for finding in rule.check(ctx):
                if not ctx.suppressed(finding.rule, finding.line):
                    findings.append(finding)
    for rule in rules:
        for finding in rule.check_project(project):
            ctx = ctxs.get(finding.path)
            if ctx is not None and ctx.suppressed(finding.rule, finding.line):
                continue
            findings.append(finding)
    return sorted(findings)


def lint_source(
    source: str,
    path: str,
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one in-memory source blob as if it lived at ``path``.

    The workhorse of the rule test-suite: fixture snippets are linted
    against synthetic repo paths so each rule's path scoping applies
    exactly as it would on disk.  Inline suppressions are honoured, and the
    blob gets a single-module project context so interprocedural rules see
    chains that stay within the file.
    """
    return lint_sources({path: source}, config=config, rules=rules)


def run_lint(
    paths: Sequence[object],
    config: Optional[LintConfig] = None,
    baseline: Optional[object] = None,
    restrict_paths: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint every python file under ``paths``; partition against ``baseline``.

    Files that fail to parse produce a single :data:`SYNTAX_ERROR_RULE`
    finding instead of aborting the run.  Timing covers the whole pass
    (file IO + parse + project call-graph build + every rule) so the
    reported seconds reflect what CI actually pays.

    ``restrict_paths`` (repo-relative posix paths) is the ``--changed-only``
    contract: *every* file is still read into the interprocedural project —
    summaries must stay whole-program-correct — then the restricted set is
    expanded to its reverse-dependency closure (callers of changed code can
    see a different interprocedural verdict), and only that closure gets
    per-file rules, findings, and stale-entry reporting.  Unchanged files
    hit the summary cache, so the skipped work is the parse plus every
    file rule.
    """
    from .dataflow import ProjectContext  # local: avoids a core<->rules cycle

    config = config or LintConfig()
    root = config.project_root if config.project_root is not None else Path.cwd()
    rules = config.build_rules()
    files = iter_python_files(paths)
    restrict: Optional[Set[str]] = (
        {Path(p).as_posix() for p in restrict_paths}
        if restrict_paths is not None
        else None
    )

    started = time.perf_counter()
    raw: List[Finding] = []
    suppressed = 0
    ctxs: Dict[str, FileContext] = {}
    sources: List[Tuple[str, str]] = []
    #: (path, line) suppression entries that absorbed at least one finding.
    used_suppressions: Set[Tuple[str, int]] = set()

    def absorb(ctx: FileContext, finding: Finding) -> bool:
        if ctx.suppressed(finding.rule, finding.line):
            used_suppressions.add((ctx.path, finding.line))
            return True
        return False

    def make_ctx(rel: str, source: str) -> Optional[FileContext]:
        try:
            ctx = FileContext(source, rel, project_root=root)
        except SyntaxError as error:
            raw.append(Finding(
                path=rel, line=error.lineno or 1, rule=SYNTAX_ERROR_RULE,
                message=f"file does not parse: {error.msg}",
            ))
            return None
        ctxs[rel] = ctx
        return ctx

    for file_path in files:
        rel = _relative_posix(file_path, root)
        sources.append((rel, file_path.read_text(encoding="utf-8")))

    if restrict is None:
        # Full run: parse once, share the tree with the project build.
        project_files: List[Tuple[str, str, Optional[ast.AST]]] = []
        for rel, source in sources:
            ctx = make_ctx(rel, source)
            if ctx is not None:
                project_files.append((rel, source, ctx.tree))
        project = ProjectContext.build(project_files, cache_path=config.cache_path)
    else:
        # Changed-only run: build the project first (cache makes unchanged
        # files parse-free), expand the restriction to the reverse-
        # dependency closure, then parse just the closure.
        project = ProjectContext.build(
            [(rel, source, None) for rel, source in sources],
            cache_path=config.cache_path,
        )
        restrict = project.graph.reverse_dependency_paths(project.table, restrict)
        for rel, source in sources:
            if rel in restrict:
                make_ctx(rel, source)
    callgraph_seconds = project.build_seconds
    for rule in rules:
        rule.bind_project(project)

    for ctx in ctxs.values():
        for rule in rules:
            if not rule.applies_to(ctx):
                continue
            for finding in rule.check(ctx):
                if absorb(ctx, finding):
                    suppressed += 1
                else:
                    raw.append(finding)

    for rule in rules:
        for finding in rule.check_project(project):
            if restrict is not None and finding.path not in restrict:
                continue
            ctx = ctxs.get(finding.path)
            if ctx is not None and absorb(ctx, finding):
                suppressed += 1
            else:
                raw.append(finding)

    if any(isinstance(rule, UnusedSuppressionRule) for rule in rules):
        for ctx in ctxs.values():
            for line, names in sorted(ctx.suppressions.items()):
                if (ctx.path, line) in used_suppressions:
                    continue
                listed = ",".join(sorted(names))
                raw.append(Finding(
                    path=ctx.path, line=line, rule=UnusedSuppressionRule.name,
                    message=(
                        f"suppression `repro: disable={listed}` never fires; "
                        "remove the stale comment"
                    ),
                    symbol=f"disable={listed}",
                ))
    elapsed = time.perf_counter() - started

    raw.sort()
    if baseline is not None:
        new, matched, stale = baseline.partition(raw, root=root)
        if restrict is not None:
            # A restricted run cannot prove an entry stale — the finding may
            # live in a file that simply was not linted this time.
            stale = [entry for entry in stale if getattr(entry, "path", None) in restrict]
    else:
        new, matched, stale = raw, [], []
    return LintResult(
        findings=list(new), baselined=list(matched), stale=list(stale),
        files=len(ctxs) if restrict is not None else len(files),
        elapsed_seconds=elapsed, suppressed=suppressed,
        callgraph_seconds=callgraph_seconds,
        functions=len(project.table.functions),
        call_edges=project.graph.edge_count,
        cache_hits=project.cache_hits, cache_misses=project.cache_misses,
    )
