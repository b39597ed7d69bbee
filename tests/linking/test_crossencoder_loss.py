"""Tests for the cross-encoder's batched ranking loss."""

import numpy as np
import pytest

from repro.data import pairs_from_mentions, split_domain
from repro.generation import build_exact_match_data
from repro.linking import CrossEncoder
from repro.linking.crossencoder import build_ranking_examples
from repro.meta import few_shot_seed
from repro.training import CrossEncoderMetaTask, MetaTrainingEngine
from repro.utils.config import CrossEncoderConfig, EncoderConfig

ENC = EncoderConfig(model_dim=16, num_layers=1, num_heads=2, hidden_dim=32, max_length=32)
CX_CFG = CrossEncoderConfig(encoder=ENC, epochs=1, batch_size=4, num_candidates=3,
                            learning_rate=5e-3)


@pytest.fixture(scope="module")
def ranking_data(tiny_corpus, tiny_tokenizer):
    domain = "yugioh"
    split = split_domain(tiny_corpus, domain, seed_size=20, dev_size=10)
    seed_pairs = few_shot_seed(pairs_from_mentions(tiny_corpus, domain, split.train, source="seed"))
    synthetic = build_exact_match_data(tiny_corpus, domain, per_entity=2)
    entities = tiny_corpus.entities(domain)
    model = CrossEncoder(CX_CFG, tiny_tokenizer)
    examples = build_ranking_examples(synthetic[:10], entities, 3, seed=0)
    seed_examples = build_ranking_examples(seed_pairs[:6], entities, 3, seed=1)
    return model, examples, seed_examples


class TestExamplesLoss:
    def test_empty_list_raises_value_error(self, ranking_data):
        model, _, _ = ranking_data
        with pytest.raises(ValueError, match="at least one ranking example"):
            model.examples_loss([])

    def test_trainer_loss_fn_empty_raises_value_error(self, ranking_data):
        model, _, _ = ranking_data
        with pytest.raises(ValueError, match="at least one ranking example"):
            CrossEncoderMetaTask(model)([])

    def test_batched_matches_per_example_loop(self, ranking_data):
        model, examples, _ = ranking_data
        model.eval()
        batched = model.examples_loss(examples, reduction="none").data
        loop = np.array([model.example_loss(e).item() for e in examples])
        assert np.allclose(batched, loop, atol=1e-10)

    def test_mixed_candidate_counts_keep_example_order(self, ranking_data):
        model, examples, _ = ranking_data
        mixed = [
            e if index % 3 else type(e)(
                mention=e.mention,
                candidates=e.candidates[:2],
                gold_index=min(e.gold_index, 1),
                weight=e.weight,
            )
            for index, e in enumerate(examples)
        ]
        model.eval()
        batched = model.examples_loss(mixed, reduction="none").data
        loop = np.array([model.example_loss(e).item() for e in mixed])
        assert np.allclose(batched, loop, atol=1e-10)

    def test_batched_gradient_matches_loop(self, ranking_data):
        model, examples, _ = ranking_data
        model.eval()  # deterministic forwards: gradients must agree exactly
        model.zero_grad()
        model.examples_loss(examples[:4], reduction="sum").backward()
        batched_grad = model.gradient_vector()
        model.zero_grad()
        total = None
        for example in examples[:4]:
            loss = model.example_loss(example)
            total = loss if total is None else total + loss
        total.backward()
        loop_grad = model.gradient_vector()
        model.zero_grad()
        assert np.allclose(batched_grad, loop_grad, atol=1e-10)

    def test_zero_weight_examples_still_counted_in_sum(self, ranking_data):
        """The weighted sum runs over all examples (zero terms included), so
        the logged epoch loss is the same weighted-sum quantity the bi-encoder
        records instead of silently dropping unselected examples."""
        model, examples, _ = ranking_data
        model.eval()
        weights = np.zeros(len(examples))
        weights[1], weights[4] = 0.75, 0.25
        weighted = model.examples_loss(examples, reduction="sum", sample_weights=weights).item()
        individual = [model.example_loss(e).item() for e in examples]
        assert weighted == pytest.approx(0.75 * individual[1] + 0.25 * individual[4])

    def test_invalid_examples_rejected(self, ranking_data):
        model, examples, _ = ranking_data
        bad_gold = type(examples[0])(
            mention=examples[0].mention,
            candidates=examples[0].candidates,
            gold_index=len(examples[0].candidates),
            weight=1.0,
        )
        with pytest.raises(ValueError, match="out of range"):
            model.examples_loss([bad_gold])
        no_candidates = type(examples[0])(
            mention=examples[0].mention, candidates=[], gold_index=0, weight=1.0
        )
        with pytest.raises(ValueError, match="no candidates"):
            model.examples_loss([no_candidates])

    def test_unknown_reduction_rejected(self, ranking_data):
        model, examples, _ = ranking_data
        with pytest.raises(ValueError, match="unknown reduction"):
            model.examples_loss(examples[:2], reduction="median")


class TestMetaCrossEncoderEngine:
    def test_fit_records_weighted_sum_epoch_loss(self, ranking_data):
        model, examples, seed_examples = ranking_data
        engine = MetaTrainingEngine.for_stage(model, CrossEncoderMetaTask(model), CX_CFG)
        history = engine.fit(examples, seed_examples, epochs=1, seed=0)
        assert len(history.series("loss")) == 1
        recorded = [m for m in engine.step_metrics if not m.skipped]
        if recorded:
            assert np.isfinite(history.last("loss"))
            assert history.last("loss") == pytest.approx(
                float(np.mean([m.loss for m in recorded]))
            )
