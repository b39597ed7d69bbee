"""Render a :class:`~repro.analysis.core.LintResult` as text.

The canonical ``path:line: rule: message`` lines (the format CI greps and
editors jump on) followed by a one-line summary.
"""

from __future__ import annotations

from .core import LintResult


def summarize(result: LintResult) -> str:
    """One-line verdict: files, timing, finding counts."""
    verdict = "clean" if result.ok else f"{len(result.findings)} finding(s)"
    detail = f" ({result.suppressed} suppressed)" if result.suppressed else ""
    return (
        f"lint: {result.files} files in {result.elapsed_seconds:.2f}s "
        f"({result.files_per_second:.0f} files/s) -> {verdict}{detail}"
    )


def render_text(result: LintResult) -> str:
    """Diagnostic lines + summary."""
    lines = [finding.describe() for finding in result.findings]
    lines.append(summarize(result))
    return "\n".join(lines)
