"""Synthetic KB enlarger: scale a small entity slice to benchmark size.

The one thing left here is :mod:`repro.bench.synthetic`, which the
benchmark (``perf/``) and the index tests use to build large, clustered,
deterministic KBs without shipping data.  Measurement itself — workloads,
load generation, verdicts — lives in ``perf/``.
"""

from .synthetic import DEFAULT_NOISE, alias_entity, enlarge_kb, synthetic_kb

__all__ = ["DEFAULT_NOISE", "alias_entity", "enlarge_kb", "synthetic_kb"]
