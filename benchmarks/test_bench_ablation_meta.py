"""Ablation: the JVP reweighting path vs the exact per-example oracle, on the trained loss."""

import numpy as np

from repro.data import pairs_from_mentions, split_domain
from repro.generation import build_exact_match_data
from repro.linking import BiEncoder, BiEncoderTrainer
from repro.meta import ExampleReweighter, few_shot_seed
from repro.training import BiEncoderMetaTask

from .conftest import run_once


def _setup(suite):
    domain = "yugioh"
    corpus = suite.corpus
    split = split_domain(corpus, domain, seed_size=suite.config.seed_size, dev_size=suite.config.dev_size)
    seed_pairs = few_shot_seed(pairs_from_mentions(corpus, domain, split.train, source="seed"))
    synthetic = build_exact_match_data(corpus, domain, per_entity=2)
    model = BiEncoder(suite.config.biencoder, suite.tokenizer)
    BiEncoderTrainer(model, suite.config.biencoder).fit(seed_pairs, epochs=1, seed=0)
    reweighter = ExampleReweighter(model, BiEncoderMetaTask(model), suite.config.meta)
    return reweighter, synthetic[:16], seed_pairs[:16]


def test_ablation_jvp_vs_oracle_meta_gradients(benchmark, suite):
    reweighter, synthetic, seed_pairs = _setup(suite)

    def compare():
        jvp = reweighter.compute_weights(synthetic, seed_pairs).raw_gradients
        oracle = reweighter.config.inner_learning_rate * reweighter.per_example_gradient_dots(
            synthetic, reweighter.seed_gradient(seed_pairs)
        )
        return oracle, jvp

    oracle, jvp = run_once(benchmark, compare)
    if np.std(oracle) > 0 and np.std(jvp) > 0:
        correlation = np.corrcoef(oracle, jvp)[0, 1]
        print(f"\nJVP-vs-oracle raw gradient correlation (in-batch loss): {correlation:.4f}")
        assert correlation > 0.9
