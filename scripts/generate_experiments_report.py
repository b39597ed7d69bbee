"""Regenerate EXPERIMENTS.md: run every experiment and record measured tables.

Usage::

    python scripts/generate_experiments_report.py [output_path]

Renders ``benchmarks/tables.py``'s entries on its ``benchmark_config()`` — the
listing ``pytest benchmarks`` asserts on, so both run the same cells.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT), str(REPO_ROOT / "src")]

from benchmarks.tables import ENTRIES, benchmark_config

from repro.eval import ExperimentSuite, markdown_table
from repro.eval.experiments import CELL_SEED


def main() -> None:
    output = Path(sys.argv[1]) if len(sys.argv) > 1 else REPO_ROOT / "EXPERIMENTS.md"
    suite = ExperimentSuite(benchmark_config())
    sections = [
        "# EXPERIMENTS — paper vs measured\n",
        "All experiments run on the synthetic Zeshel substitute with the scaled-down models of\n"
        "`benchmarks/tables.py::benchmark_config` (CPU-only).  Absolute numbers are therefore not\n"
        "comparable to the paper's GPU/BERT results; each section records the paper's claim above\n"
        f"the measured rows.  Every trained cell uses shuffle seed {CELL_SEED}; the mean over seeds is\n"
        "`pytest benchmarks/test_bench_seed_matrix.py -s`.  Regenerate this file with\n"
        "`python scripts/generate_experiments_report.py`.\n",
    ]
    for entry in ENTRIES:
        rows = entry.run(suite)
        table = markdown_table(rows) if rows else "(no rows at this corpus scale on this seed)"
        sections += [f"## {entry.title}\n", f"Paper: {entry.claim}\n", table + "\n"]
    output.write_text("\n".join(sections), encoding="utf-8")
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
