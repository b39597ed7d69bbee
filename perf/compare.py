"""Compare two result files of ``python -m perf.run``.

::

    python -m perf.compare A.json B.json

prints one row per (end-to-end metric, workload): both medians, the bound and
a verdict for B against A, the table a performance or simplicity change
pastes into its description.

* ``unresolved`` - either side's run-to-run spread (quartile distance over
  median) is wider than the bound, so the bound cannot be checked;
* ``regressed`` - B's median is worse than A's by more than the bound;
* ``improved`` - B's median is better by more than A's own quartile distance;
* ``no worse`` - anything else.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import spec


def verdict(a: Dict[str, float], b: Dict[str, float], better: str, bound: float) -> str:
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (b["median"] - a["median"])
    if -gain > bound * abs(a["median"]):
        return "regressed"
    if gain > a["q3"] - a["q1"] and gain > 0:
        return "improved"
    return "no worse"


def compare(a: Dict[str, object], b: Dict[str, object]) -> List[Dict[str, object]]:
    rows = []
    for workload in spec.WORKLOADS:
        for metric in spec.END_TO_END:
            left = a["end_to_end"][workload.name][metric.name]
            right = b["end_to_end"][workload.name][metric.name]
            rows.append({
                "workload": workload.name, "metric": metric.name, "unit": metric.unit,
                "a": left["median"], "b": right["median"], "bound": metric.bound,
                "spread_a": left["spread"], "spread_b": right["spread"],
                "verdict": verdict(left, right, metric.better, metric.bound),
            })
    return rows


def table(rows: List[Dict[str, object]]) -> str:
    lines = ["| workload | metric | A median | B median | B / A | bound | spread A / B | verdict |",
             "| --- | --- | ---: | ---: | ---: | ---: | ---: | --- |"]
    for row in rows:
        ratio = row["b"] / row["a"] if row["a"] else float("nan")
        lines.append(
            f"| {row['workload']} | {row['metric']} ({row['unit']}) | {row['a']:.4g} | "
            f"{row['b']:.4g} | {ratio:.3f} | {row['bound']:.2f} | "
            f"{row['spread_a']:.3f} / {row['spread_b']:.3f} | {row['verdict']} |"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in paths)
    rows = compare(a, b)
    print(table(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
