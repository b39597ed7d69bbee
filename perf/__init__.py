"""The repo's one benchmark: five workloads, end-to-end and per-layer metrics.

``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1`` runs one
workload and prints one JSON result line (the ``BENCHMARK.json`` contract);
``python -m perf.run`` with no ``--workload`` runs all five, untraced then
traced, each in a fresh interpreter.  See ``perf/README.md``.
"""
