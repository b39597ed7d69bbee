#!/usr/bin/env python
"""Run the repro lint gate: exit 0 when clean, 1 on new findings.

Usage::

    python scripts/run_lint.py                      # lint src/ (default)
    python scripts/run_lint.py src tests benchmarks # full gate, as in CI
    python scripts/run_lint.py --changed-only       # pre-commit: only files
                                                    # changed vs origin/main,
                                                    # plus reverse deps
    python scripts/run_lint.py --list-rules         # show registered rules
    python scripts/run_lint.py --format json src    # machine-readable report
    python scripts/run_lint.py --baseline-update src  # rewrite lint_baseline.json

The baseline (``lint_baseline.json`` at the repo root) absorbs
grandfathered findings; only *new* findings fail the gate.  After fixing
baselined code, re-run with ``--baseline-update`` to prune stale entries
(existing justifications are preserved).

The interprocedural rules build a whole-project call graph on every run;
per-file summaries are cached in ``.repro_lint_cache.json`` (content-hash
keyed) so unchanged files cost one hash instead of a parse.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import (  # noqa: E402
    Baseline,
    DEFAULT_BASELINE_NAME,
    LintConfig,
    registered_rules,
    render_json,
    render_rule_table,
    render_text,
    run_lint,
)

#: Summary-cache file name at the repo root (gitignored).
CACHE_NAME = ".repro_lint_cache.json"


def changed_files(base_ref: str) -> list:
    """Repo-relative python files changed vs ``base_ref`` (plus untracked)."""
    out: set = set()
    for cmd in (
        ["git", "diff", "--name-only", base_ref, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        proc = subprocess.run(
            cmd, cwd=REPO_ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(
                f"run_lint: {' '.join(cmd)} failed: {proc.stderr.strip()}"
            )
        out.update(
            line.strip() for line in proc.stdout.splitlines()
            if line.strip().endswith(".py")
        )
    return sorted(out)


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
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline", default=str(REPO_ROOT / DEFAULT_BASELINE_NAME),
        help=f"baseline file (default: <repo>/{DEFAULT_BASELINE_NAME})",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: report every finding as new",
    )
    parser.add_argument(
        "--baseline-update", action="store_true",
        help="rewrite the baseline to cover current findings, keeping "
             "existing justifications, then exit 0",
    )
    parser.add_argument(
        "--show-baselined", action="store_true",
        help="also print findings covered by the baseline (text format)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--changed-only", action="store_true",
        help="lint only files changed vs --base-ref (plus untracked files "
             "and their reverse-dependency closure from the call graph)",
    )
    parser.add_argument(
        "--base-ref", default="origin/main", metavar="REF",
        help="git ref --changed-only diffs against (default: origin/main)",
    )
    parser.add_argument(
        "--rule-summary", action="store_true",
        help="print a per-rule table of new-finding counts after the report",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help=f"skip the {CACHE_NAME} summary cache (cold whole-program build)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, cls in sorted(registered_rules().items()):
            print(f"{name}: {cls.description}")
            print(f"    paths: {', '.join(cls.default_paths)}")
        return 0

    enabled = None
    if args.rules:
        enabled = [name.strip() for name in args.rules.split(",") if name.strip()]
    config = LintConfig(
        enabled=enabled,
        project_root=REPO_ROOT,
        cache_path=None if args.no_cache else REPO_ROOT / CACHE_NAME,
    )

    baseline_path = Path(args.baseline)
    baseline = None
    if not args.no_baseline:
        baseline = Baseline.load(baseline_path)

    restrict = None
    if args.changed_only:
        restrict = changed_files(args.base_ref)
        if not restrict:
            print(f"lint: no python files changed vs {args.base_ref}")
            return 0

    result = run_lint(
        args.paths, config=config, baseline=baseline, restrict_paths=restrict,
    )

    if args.baseline_update:
        previous = baseline if baseline is not None else Baseline.load(baseline_path)
        all_findings = sorted([*result.findings, *result.baselined])
        updated = Baseline.from_findings(all_findings, previous=previous)
        updated.save(baseline_path)
        print(
            f"baseline updated: {len(updated)} entr(y/ies) covering "
            f"{len(all_findings)} finding(s) -> {baseline_path}"
        )
        return 0

    if args.format == "json":
        sys.stdout.write(render_json(result))
    else:
        print(render_text(result, show_baselined=args.show_baselined))
    if args.rule_summary or (args.format == "text" and not result.ok):
        print("\nfindings by rule:")
        print(render_rule_table(result))
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
