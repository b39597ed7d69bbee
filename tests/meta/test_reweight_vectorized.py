"""Tests for the JVP reweighting path against the exact per-example oracle."""

import numpy as np
import pytest

from repro.data import pairs_from_mentions, split_domain
from repro.generation import build_exact_match_data
from repro.linking import BiEncoder, BiEncoderTrainer, CrossEncoder, CrossEncoderTrainer
from repro.linking.crossencoder import build_ranking_examples
from repro.meta import ExampleReweighter, few_shot_seed, normalize_weights
from repro.training import BiEncoderMetaTask, CrossEncoderMetaTask
from repro.utils.config import BiEncoderConfig, CrossEncoderConfig, EncoderConfig, MetaConfig

# Dropout deliberately on: the probes must be immune to it (they run in eval
# mode), which is exactly what the JVP fix is about.
ENC = EncoderConfig(model_dim=16, num_layers=1, num_heads=2, hidden_dim=32,
                    max_length=32, dropout=0.2)
BI_CFG = BiEncoderConfig(encoder=ENC, epochs=1, batch_size=8, learning_rate=5e-3)
CX_CFG = CrossEncoderConfig(encoder=ENC, epochs=1, batch_size=4, num_candidates=3, learning_rate=5e-3)


@pytest.fixture(scope="module")
def reweight_data(tiny_corpus):
    domain = "yugioh"
    split = split_domain(tiny_corpus, domain, seed_size=20, dev_size=10)
    seed_pairs = few_shot_seed(pairs_from_mentions(tiny_corpus, domain, split.train, source="seed"))
    synthetic = build_exact_match_data(tiny_corpus, domain, per_entity=2)
    entities = tiny_corpus.entities(domain)
    return seed_pairs, synthetic, entities


def make_reweighter(tokenizer, entities, config=None):
    model = BiEncoder(BI_CFG, tokenizer)
    return model, ExampleReweighter(model, BiEncoderMetaTask(model), config or MetaConfig())


class TestNormalizeWeightsEdgeCases:
    def test_all_negative_returns_zeros(self):
        assert np.allclose(normalize_weights(np.array([-1.0, -0.5, -3.0])), 0.0)

    def test_single_positive_example_gets_full_weight(self):
        assert np.allclose(normalize_weights(np.array([5.0])), [1.0])

    def test_single_negative_example_gets_zero(self):
        assert np.allclose(normalize_weights(np.array([-5.0])), [0.0])

    def test_empty_input(self):
        assert normalize_weights(np.array([])).size == 0


class TestExactBlockedPath:
    def test_blocked_matches_per_example_loop(self, reweight_data, tiny_tokenizer):
        """The oracle's shared graph must reproduce one fresh forward/backward per example."""
        seed_pairs, synthetic, entities = reweight_data
        model, reweighter = make_reweighter(tiny_tokenizer, entities)
        seed_grad = reweighter.seed_gradient(seed_pairs[:8])
        batch = synthetic[:10]
        reference = np.zeros(len(batch))
        model.eval()
        for position in range(len(batch)):
            model.zero_grad()
            reweighter.loss_fn(batch, reduction="none")[position].backward()
            reference[position] = model.gradient_vector() @ seed_grad
        model.zero_grad()
        shared = reweighter.per_example_gradient_dots(batch, seed_grad)
        assert np.allclose(shared, reference, rtol=1e-9, atol=1e-9)

    def test_training_mode_restored_and_grads_cleared(self, reweight_data, tiny_tokenizer):
        seed_pairs, synthetic, entities = reweight_data
        model, reweighter = make_reweighter(tiny_tokenizer, entities)
        model.train()
        seed_grad = reweighter.seed_gradient(seed_pairs[:8])
        reweighter.per_example_gradient_dots(synthetic[:6], seed_grad)
        assert model.training, "probes must restore training mode"
        assert all(p.grad is None for p in model.parameters())


class TestJvpEstimator:
    def test_first_order_agreement_with_exact_under_dropout(self, reweight_data, tiny_tokenizer):
        """JVP dots must match exact dots to first order despite dropout layers."""
        seed_pairs, synthetic, entities = reweight_data
        model, reweighter = make_reweighter(tiny_tokenizer, entities)
        model.train()  # training mode on purpose: probes must neutralise it
        seed_grad = reweighter.seed_gradient(seed_pairs[:8])
        batch = synthetic[:10]
        exact = reweighter.per_example_gradient_dots(batch, seed_grad)
        jvp = reweighter.jvp_gradient_dots(batch, seed_grad)
        scale = np.abs(exact).max()
        assert scale > 0
        assert np.abs(jvp - exact).max() <= 0.1 * scale
        assert np.corrcoef(exact, jvp)[0, 1] > 0.99

    def test_deterministic_under_dropout(self, reweight_data, tiny_tokenizer):
        """Two JVP evaluations must agree exactly — no fresh dropout masks."""
        seed_pairs, synthetic, entities = reweight_data
        model, reweighter = make_reweighter(tiny_tokenizer, entities)
        model.train()
        seed_grad = reweighter.seed_gradient(seed_pairs[:8])
        first = reweighter.jvp_gradient_dots(synthetic[:6], seed_grad)
        second = reweighter.jvp_gradient_dots(synthetic[:6], seed_grad)
        assert np.array_equal(first, second)

    def test_unit_direction_keeps_large_gradients_linear(self, reweight_data, tiny_tokenizer):
        """Scaling the seed gradient by 1e3 must scale the dots by exactly 1e3.

        The unnormalised estimator stepped ``ε·g``, so a large ‖g‖ pushed the
        probe outside the linear regime; the unit-direction step makes the
        estimate exactly homogeneous in ‖g‖.
        """
        seed_pairs, synthetic, entities = reweight_data
        model, reweighter = make_reweighter(tiny_tokenizer, entities)
        seed_grad = reweighter.seed_gradient(seed_pairs[:8])
        base = reweighter.jvp_gradient_dots(synthetic[:6], seed_grad)
        scaled = reweighter.jvp_gradient_dots(synthetic[:6], 1e3 * seed_grad)
        assert np.allclose(scaled, 1e3 * base, rtol=1e-9)

    def test_parameters_and_mode_restored(self, reweight_data, tiny_tokenizer):
        seed_pairs, synthetic, entities = reweight_data
        model, reweighter = make_reweighter(tiny_tokenizer, entities)
        model.train()
        before = model.flatten_parameters()
        seed_grad = reweighter.seed_gradient(seed_pairs[:8])
        reweighter.jvp_gradient_dots(synthetic[:6], seed_grad)
        assert np.array_equal(before, model.flatten_parameters())
        assert model.training

    def test_zero_seed_gradient_short_circuits(self, reweight_data, tiny_tokenizer):
        _, synthetic, entities = reweight_data
        model, reweighter = make_reweighter(tiny_tokenizer, entities)
        dots = reweighter.jvp_gradient_dots(synthetic[:5], np.zeros(model.num_parameters()))
        assert np.array_equal(dots, np.zeros(5))


def _trained_losses(tokenizer, seed_pairs, synthetic, entities):
    """(name, reweighter, synthetic items, seed items) for the two trained losses,
    each model warmed up for an epoch so the gradients carry signal."""
    biencoder = BiEncoder(BI_CFG, tokenizer)
    BiEncoderTrainer(biencoder, BI_CFG).fit(seed_pairs, epochs=1, seed=0)
    crossencoder = CrossEncoder(CX_CFG, tokenizer)
    seed_examples = build_ranking_examples(seed_pairs, entities, CX_CFG.num_candidates, seed=1)
    CrossEncoderTrainer(crossencoder, CX_CFG).fit(seed_examples, epochs=1, seed=0)
    examples = build_ranking_examples(synthetic, entities, CX_CFG.num_candidates, seed=0)
    return [
        ("in-batch", ExampleReweighter(biencoder, BiEncoderMetaTask(biencoder)), synthetic, seed_pairs),
        ("ranking", ExampleReweighter(crossencoder, CrossEncoderMetaTask(crossencoder)),
         examples, seed_examples),
    ]


class TestJvpAgainstOracleOnTrainedLosses:
    """JVP is the path training runs; the exact dots are what it is held to, on
    the in-batch bi-encoder loss and the cross-encoder ranking loss."""

    def test_raw_weights_follow_the_oracle(self, reweight_data, tiny_tokenizer):
        seed_pairs, synthetic, entities = reweight_data
        for name, reweighter, items, seed_items in _trained_losses(
            tiny_tokenizer, seed_pairs, synthetic, entities
        ):
            rng = np.random.default_rng(7)
            for _ in range(3):
                batch = [items[i] for i in rng.choice(len(items), size=8, replace=False)]
                seed_batch = [seed_items[i] for i in rng.choice(len(seed_items), size=8, replace=False)]
                reweighter.model.train()  # dropout on: the probes must neutralise it
                result = reweighter.compute_weights(batch, seed_batch)
                oracle = reweighter.config.inner_learning_rate * reweighter.per_example_gradient_dots(
                    batch, reweighter.seed_gradient(seed_batch)
                )
                assert np.corrcoef(oracle, result.raw_gradients)[0, 1] >= 0.99, name
                assert (np.sign(oracle) == np.sign(result.raw_gradients)).mean() >= 0.9, name
                assert np.all(result.weights >= 0.0), name
                assert result.weights.sum() == pytest.approx(1.0) or not result.weights.any(), name

    def test_probe_leaves_the_model_as_it_found_it(self, reweight_data, tiny_tokenizer):
        seed_pairs, synthetic, entities = reweight_data
        for name, reweighter, items, seed_items in _trained_losses(
            tiny_tokenizer, seed_pairs, synthetic, entities
        ):
            model = reweighter.model
            for training in (True, False):
                model.train(training)
                before = model.flatten_parameters()
                reweighter.compute_weights(items[:6], seed_items[:6])
                assert np.array_equal(before, model.flatten_parameters()), name
                assert model.training is training, name
                assert all(p.grad is None for p in model.parameters()), name
