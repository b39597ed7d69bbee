"""Command line of the benchmark.

One workload (the ``BENCHMARK.json`` contract; the last line of standard
output is the JSON result)::

    python3 perf/run.py --workload serve_steady --seed 1 --seconds 10 --trace 0

Every workload, untraced then traced, each in a fresh interpreter, with a
summary written to ``perf/out/results.json``::

    python -m perf.run [--seed N] [--repeat N] [--quick] [--out FILE]
"""

from __future__ import annotations

import os

# Before numpy is imported: one BLAS thread, so the two replicas and the
# generator are the only things competing for the cores.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"

if __name__ == "__main__" and sys.path and Path(sys.path[0]).resolve() == PERF_DIR:
    # Run as a script: drop perf/ itself from the path (its trace.py would
    # shadow the standard library's) and make the ``perf`` package importable.
    sys.path[0] = str(ROOT)
if str(ROOT / "src") not in sys.path:
    sys.path.insert(1, str(ROOT / "src"))

from perf import spec  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> Dict[str, object]:
    """Run one workload in this interpreter; the full record of the run."""
    from perf.runners import RUNNERS, Scale
    from perf.trace import Tracer

    scale = Scale.quick(seconds) if quick else Scale(seconds=seconds)
    tracer = Tracer() if trace else None
    result = RUNNERS[workload](seed, scale, tracer)
    if tracer is not None:
        tracer.write(OUT_DIR / f"trace-{workload}.jsonl")
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    values = result.layer if trace else result.end_to_end
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fingerprint": result.fingerprint,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": result.problems,
        "notes": result.notes,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in declared},
    }


def print_record(record: Dict[str, object]) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"inputs sha256 {record['fingerprint']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<42} {metric['value']:>14.4f} {metric['unit']}")
    for key, value in record["notes"].items():
        print(f"  ({key}: {value})")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}  correct {record['correct']}")


def result_line(record: Dict[str, object]) -> str:
    return json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")})


# ----------------------------------------------------------------------
# All workloads, each in its own interpreter
# ----------------------------------------------------------------------
def environment() -> Dict[str, object]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit}


def run_child(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> Dict[str, object]:
    detail = OUT_DIR / f"run-{workload}-trace{int(trace)}.json"
    command = [sys.executable, str(PERF_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
               "--detail", str(detail)]
    if quick:
        command.append("--quick")
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if completed.returncode != 0 and not detail.exists():
        raise RuntimeError(f"{' '.join(command)} failed:\n{completed.stdout}\n{completed.stderr}")
    record = json.loads(detail.read_text())
    detail.unlink()
    return record


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and their distance as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0, "runs": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def summarise(runs: List[Dict[str, object]]) -> Dict[str, Dict[str, Dict[str, float]]]:
    """``{workload: {metric: quartiles}}`` over the runs of one kind."""
    series: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            series.setdefault(run["workload"], {}).setdefault(name, []).append(metric["value"])
    return {workload: {name: quartiles(values) for name, values in metrics.items()}
            for workload, metrics in series.items()}


def time_table(layer_summary: Dict[str, Dict[str, Dict[str, float]]],
               end_to_end: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    """Markdown "where the time goes" table, one row per workload, from the traced pass."""
    stages = ("tokenize", "embed", "retrieve", "rerank", "assemble")
    lines = [
        "| workload | " + " | ".join(stages) + " | queue wait p50 ms | reweight share "
        "| span overhead | traced / untraced p50 |",
        "| --- |" + " ---: |" * (len(stages) + 4),
    ]
    for workload, metrics in layer_summary.items():
        def value(name: str) -> float:
            return metrics[name]["median"]
        ratio = value("trace.latency_p50_ms") / end_to_end[workload]["latency_p50_ms"]["median"]
        lines.append(
            f"| {workload} | "
            + " | ".join(f"{value(f'pipeline.{s}_share'):.2f}" for s in stages)
            + f" | {value('service.queue_wait_p50_ms'):.1f} | {value('reweight.share'):.2f}"
            + f" | {value('trace.overhead_share'):.3f} | {ratio:.2f} |"
        )
    return "\n".join(lines)


def run_all(seed: int, seconds: float, repeat: int, quick: bool, out: Path) -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    runs: List[Dict[str, object]] = []
    for repetition in range(repeat):
        for workload in spec.WORKLOADS:
            # Per-layer numbers come from one traced pass; repeats add
            # untraced passes, on seeds seed, seed + 1, ...
            for trace in ([False, True] if repetition == 0 else [False]):
                record = run_child(workload.name, seed + repetition, seconds, trace, quick)
                print_record(record)
                runs.append(record)
    end_to_end = summarise([run for run in runs if not run["trace"]])
    per_layer = summarise([run for run in runs if run["trace"]])
    table = time_table(per_layer, end_to_end)
    print("\nWhere the time goes (traced pass; shares of pipeline.link time):\n" + table)
    (OUT_DIR / "where-the-time-goes.md").write_text(table + "\n")
    bounds = {metric.name: metric.bound for metric in spec.END_TO_END}
    wide = [
        f"{workload}/{name}: spread {row['spread']:.3f} > bound {bounds[name]}"
        for workload, metrics in end_to_end.items() for name, row in metrics.items()
        if name != "setup_s" and row["spread"] > bounds[name]
    ]
    for line in wide:
        print("SPREAD WIDER THAN BOUND:", line)
    out.parent.mkdir(parents=True, exist_ok=True)
    # The traced runs' 69 numbers each are already in ``per_layer``.
    kept = [{k: v for k, v in run.items() if not (run["trace"] and k == "metrics")} for run in runs]
    out.write_text(json.dumps({
        "environment": environment(), "seed": seed, "seconds": seconds, "repeat": repeat,
        "bounds": bounds, "end_to_end": end_to_end, "per_layer": per_layer, "runs": kept,
    }, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(run["correct"] for run in runs) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="whole untraced runs per workload, on consecutive seeds")
    parser.add_argument("--quick", action="store_true",
                        help="2 s per workload on small knowledge bases, one set-up")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "results.json")
    parser.add_argument("--detail", type=Path, help="also write the full record of the run here")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (2.0 if args.quick else spec.RUN_SECONDS)

    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"perf: the program under test is not importable from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, seconds, args.repeat, args.quick, args.out)
    record = run_one(args.workload, args.seed, seconds, bool(args.trace), args.quick)
    if args.detail is not None:
        args.detail.parent.mkdir(parents=True, exist_ok=True)
        args.detail.write_text(json.dumps(record))
    print_record(record)
    print(result_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
