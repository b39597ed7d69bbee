"""Unit tests for configuration, RNG helpers and logging utilities."""

import logging

import numpy as np
import pytest

from repro.utils import (
    MetricHistory,
    batched_indices,
    default_config,
    derive_seed,
    make_rng,
    shuffled,
    spawn_rngs,
    timed,
)
from repro.utils.config import CorpusConfig, ExperimentConfig


class TestConfig:
    def test_default_config_is_frozen(self):
        config = default_config()
        with pytest.raises(Exception):
            config.recall_k = 99  # type: ignore[misc]

    def test_default_config_reseed(self):
        config = default_config(seed=42)
        assert config.seed == 42
        assert config.corpus.seed == 42

    def test_scaled_for_tests_is_smaller(self):
        config = ExperimentConfig()
        scaled = config.scaled_for_tests()
        assert scaled.corpus.entities_per_domain < config.corpus.entities_per_domain
        assert scaled.seed_size < config.seed_size

    def test_to_dict_roundtrip_keys(self):
        payload = CorpusConfig().to_dict()
        assert CorpusConfig(**payload) == CorpusConfig()


class TestRng:
    def test_make_rng_deterministic(self):
        assert make_rng(5).integers(0, 100) == make_rng(5).integers(0, 100)

    def test_spawn_rngs_independent(self):
        first, second = spawn_rngs(7, 2)
        assert first.integers(0, 10_000) != second.integers(0, 10_000)

    def test_derive_seed_stable_and_label_sensitive(self):
        assert derive_seed(1, "lego") == derive_seed(1, "lego")
        assert derive_seed(1, "lego") != derive_seed(1, "yugioh")

    def test_shuffled_does_not_mutate(self):
        items = [1, 2, 3, 4, 5]
        result = shuffled(items, make_rng(0))
        assert sorted(result) == items
        assert items == [1, 2, 3, 4, 5]

    def test_batched_indices_cover_everything(self):
        batches = list(batched_indices(10, 3, make_rng(0)))
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(10))
        assert all(len(batch) <= 3 for batch in batches)


class TestLoggingHelpers:
    def test_metric_history_basicstats(self):
        history = MetricHistory()
        history.add("loss", 2.0)
        history.add("loss", 1.0)
        assert history.last("loss") == 1.0
        assert history.mean("loss") == 1.5
        assert history.series("loss") == [2.0, 1.0]
        assert history.names() == ["loss"]

    def test_metric_history_missing_key(self):
        with pytest.raises(KeyError):
            MetricHistory().last("absent")

    def test_timed_records_elapsed(self):
        sink = {}
        with timed("block", sink):
            sum(range(1000))
        assert sink["block"] >= 0.0
