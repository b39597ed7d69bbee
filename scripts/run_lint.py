#!/usr/bin/env python
"""Run the repro lint gate: exit 0 when clean, 1 on findings.

Usage::

    python scripts/run_lint.py                 # lint src/ (default, as in CI)
    python scripts/run_lint.py --rules bounded-wait,lock-discipline src
    python scripts/run_lint.py --list-rules    # show registered rules

A finding is either fixed or excused on its line with
``# repro: disable=<rule>``, the reason in the comment line above it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import (  # noqa: E402
    LintConfig,
    registered_rules,
    render_text,
    run_lint,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files/directories to lint (default: src)",
    )
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule names to run (default: all registered)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, cls in sorted(registered_rules().items()):
            print(f"{name}: {cls.description}")
            print(f"    paths: {', '.join(cls.paths)}")
        return 0

    enabled = None
    if args.rules:
        enabled = [name.strip() for name in args.rules.split(",") if name.strip()]
    result = run_lint(
        args.paths, config=LintConfig(enabled=enabled, project_root=REPO_ROOT),
    )
    print(render_text(result))
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
