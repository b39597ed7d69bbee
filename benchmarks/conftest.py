"""Shared fixtures for the benchmark harness.

Every benchmark regenerates a result of the paper through
:class:`repro.eval.ExperimentSuite`.  The suite is session-scoped so the
corpus, the tokenizer, the pairs of every training source and every trained
cell are built once and reused by all benchmarks.
"""

import pytest

from repro.eval import ExperimentSuite

from .tables import benchmark_config


@pytest.fixture(scope="session")
def suite():
    return ExperimentSuite(benchmark_config())


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)
