"""Run with ``python -m pytest perf -q`` from the repo root (not part of tier-1)."""

import perf.run  # noqa: F401  (puts src/ on sys.path, pins BLAS to one thread)
