"""Render experiment results as paper-style text tables."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    float_digits: int = 2,
) -> str:
    """Render a list of row dictionaries as an aligned text table."""
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    columns = list(columns) if columns is not None else list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{float_digits}f}"
        return str(value)

    rendered = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(line[i]) for line in rendered))
        for i, column in enumerate(columns)
    ]
    header = " | ".join(str(column).ljust(widths[i]) for i, column in enumerate(columns))
    separator = "-+-".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join(
        " | ".join(line[i].ljust(widths[i]) for i in range(len(columns))) for line in rendered
    )
    parts = []
    if title:
        parts.append(title)
    parts.extend([header, separator, body])
    return "\n".join(parts)


def markdown_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    float_digits: int = 2,
) -> str:
    """Render rows as a GitHub-flavoured markdown table (for EXPERIMENTS.md)."""
    if not rows:
        return "(empty)"
    columns = list(columns) if columns is not None else list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{float_digits}f}"
        return str(value)

    lines = ["| " + " | ".join(str(c) for c in columns) + " |",
             "| " + " | ".join("---" for _ in columns) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(render(row.get(c, "")) for c in columns) + " |")
    return "\n".join(lines)
