"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper through
:class:`repro.eval.ExperimentSuite`.  The suite is session-scoped so the
corpus, tokenizer, synthetic-data bundles and the general-domain training
pairs are built once and reused by all benchmarks.

The configuration is deliberately small (see README § "Tests and
benchmarks"): the goal is to reproduce the *shape* of each result in
CPU-minutes, not the absolute numbers of the authors' GPU runs.
"""

from dataclasses import replace

import pytest

from repro.eval import ExperimentSuite, small_experiment_config


def benchmark_config(seed: int = 13):
    """The corpus / model sizes used by all benchmarks."""
    config = small_experiment_config(seed=seed)
    return replace(
        config,
        corpus=replace(config.corpus, entities_per_domain=24, mentions_per_domain=140),
        biencoder=replace(config.biencoder, epochs=2),
        crossencoder=replace(config.crossencoder, epochs=1),
        seed_size=30,
        dev_size=20,
        recall_k=8,
    )


@pytest.fixture(scope="session")
def suite():
    return ExperimentSuite(benchmark_config())


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)
