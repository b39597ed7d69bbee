"""Project-native static analysis for the repro codebase.

An AST-based linter whose rules encode *this repo's* invariants —
thread-local grad state, ``self._lock`` discipline, probe-mode restore,
future settlement and bounded waits in ``repro.serving``.  Every rule is
distilled from a bug this codebase actually shipped, and each file is
checked on its own: one parse, the rules whose ``paths`` match, nothing
carried between files.

Entry points:

* ``scripts/run_lint.py`` — the CLI gate (exit code = verdict).
* :func:`run_lint` / :func:`lint_source` — the library API.

The one way to excuse a finding is ``# repro: disable=<rule>`` on its
line, with the reason in the comment line above; ``unused-suppression``
flags the comment once it no longer absorbs anything.
"""

from .core import (
    FileContext,
    Finding,
    LintConfig,
    LintResult,
    Rule,
    SYNTAX_ERROR_RULE,
    iter_python_files,
    lint_source,
    register,
    registered_rules,
    run_lint,
)
from .reporters import render_text, summarize

# Importing the rules package registers every domain rule.
from . import rules as _rules  # noqa: F401

__all__ = [
    "FileContext",
    "Finding",
    "LintConfig",
    "LintResult",
    "Rule",
    "SYNTAX_ERROR_RULE",
    "iter_python_files",
    "lint_source",
    "register",
    "registered_rules",
    "run_lint",
    "render_text",
    "summarize",
]
