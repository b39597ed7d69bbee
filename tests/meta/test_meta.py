"""Unit tests for the meta-learning core (reweighting, seeds, MetaBLINK)."""

import numpy as np
import pytest

from repro.data import pairs_from_mentions, split_domain
from repro.generation import build_exact_match_data, mix_with_noise
from repro.linking import BiEncoder, BiEncoderTrainer
from repro.meta import (
    ExampleReweighter,
    MetaBlinkTrainer,
    build_zero_shot_seed,
    few_shot_seed,
    filter_synthetic_for_seed,
    normalize_weights,
    self_match_pairs,
)
from repro.training import BiEncoderMetaTask, MetaTrainingEngine
from repro.utils.config import BiEncoderConfig, CrossEncoderConfig, EncoderConfig, MetaConfig

ENC = EncoderConfig(model_dim=16, num_layers=1, num_heads=2, hidden_dim=32, max_length=32)
BI_CFG = BiEncoderConfig(encoder=ENC, epochs=1, batch_size=8, learning_rate=5e-3)
CX_CFG = CrossEncoderConfig(encoder=ENC, epochs=1, batch_size=4, num_candidates=3, learning_rate=5e-3)
META_JVP = MetaConfig()


@pytest.fixture(scope="module")
def meta_data(tiny_corpus):
    domain = "yugioh"
    split = split_domain(tiny_corpus, domain, seed_size=20, dev_size=10)
    seed_pairs = few_shot_seed(pairs_from_mentions(tiny_corpus, domain, split.train, source="seed"))
    synthetic = build_exact_match_data(tiny_corpus, domain, per_entity=2)
    entities = tiny_corpus.entities(domain)
    return domain, split, seed_pairs, synthetic, entities


def make_reweighter(tokenizer, entities, config):
    model = BiEncoder(BI_CFG, tokenizer)
    return model, ExampleReweighter(model, BiEncoderMetaTask(model), config)


class TestNormalizeWeights:
    def test_clips_negatives_and_normalises(self):
        weights = normalize_weights(np.array([1.0, -2.0, 3.0]))
        assert weights[1] == 0.0
        assert weights.sum() == pytest.approx(1.0)

    def test_all_negative_returns_zeros(self):
        assert np.allclose(normalize_weights(np.array([-1.0, -2.0])), 0.0)

    def test_preserves_relative_magnitude(self):
        weights = normalize_weights(np.array([1.0, 3.0]))
        assert weights[1] == pytest.approx(3 * weights[0])


class TestExampleReweighter:
    def test_weights_sum_to_one_or_zero(self, meta_data, tiny_tokenizer):
        _, _, seed_pairs, synthetic, entities = meta_data
        _, reweighter = make_reweighter(tiny_tokenizer, entities, META_JVP)
        result = reweighter.compute_weights(synthetic[:8], seed_pairs[:8])
        assert result.weights.shape == (8,)
        assert result.weights.sum() == pytest.approx(1.0) or result.weights.sum() == 0.0
        assert np.all(result.weights >= 0.0)

    def test_exact_and_jvp_paths_agree(self, meta_data, tiny_tokenizer):
        _, _, seed_pairs, synthetic, entities = meta_data
        model, reweighter = make_reweighter(tiny_tokenizer, entities, META_JVP)
        # train a little so gradients are informative
        BiEncoderTrainer(model, BI_CFG).fit(seed_pairs, epochs=1, seed=0)
        jvp = reweighter.compute_weights(synthetic[:6], seed_pairs[:6])
        exact = META_JVP.inner_learning_rate * reweighter.per_example_gradient_dots(
            synthetic[:6], reweighter.seed_gradient(seed_pairs[:6])
        )
        # The trained path's raw weights follow the exact per-example oracle.
        assert np.std(exact) > 0 and np.std(jvp.raw_gradients) > 0
        assert np.corrcoef(exact, jvp.raw_gradients)[0, 1] > 0.9

    def test_parameters_restored_after_jvp(self, meta_data, tiny_tokenizer):
        _, _, seed_pairs, synthetic, entities = meta_data
        model, reweighter = make_reweighter(tiny_tokenizer, entities, META_JVP)
        before = model.flatten_parameters()
        reweighter.compute_weights(synthetic[:4], seed_pairs[:4])
        assert np.allclose(before, model.flatten_parameters())

    def test_empty_batches_rejected(self, meta_data, tiny_tokenizer):
        _, _, seed_pairs, synthetic, entities = meta_data
        _, reweighter = make_reweighter(tiny_tokenizer, entities, META_JVP)
        with pytest.raises(ValueError):
            reweighter.compute_weights([], seed_pairs[:4])
        with pytest.raises(ValueError):
            reweighter.compute_weights(synthetic[:4], [])

    def test_noise_selected_less_than_normal(self, meta_data, tiny_tokenizer):
        _, _, seed_pairs, synthetic, entities = meta_data
        model, reweighter = make_reweighter(tiny_tokenizer, entities, META_JVP)
        BiEncoderTrainer(model, BI_CFG).fit(synthetic + seed_pairs, epochs=2, seed=0)
        mixed = mix_with_noise(synthetic, entities, fraction=0.5, seed=3)
        ratios = reweighter.selection_ratio_by_source(mixed, seed_pairs, batch_size=8, seed=0)
        assert set(ratios) == {"exact_match", "noise"}
        assert ratios["noise"] <= ratios["exact_match"]


class TestSeedConstruction:
    def test_few_shot_seed_marks_source(self, meta_data):
        _, _, seed_pairs, _, _ = meta_data
        assert all(pair.source == "seed" for pair in seed_pairs)

    def test_few_shot_seed_truncates(self, meta_data):
        _, _, seed_pairs, _, _ = meta_data
        assert len(few_shot_seed(seed_pairs, size=5)) == 5

    def test_filter_removes_title_copies(self, meta_data):
        _, _, _, synthetic, _ = meta_data
        filtered = filter_synthetic_for_seed(synthetic)
        for pair in filtered:
            assert pair.mention.surface.lower() != pair.entity.title.lower()

    def test_self_match_requires_disambiguation(self, meta_data):
        _, _, _, _, entities = meta_data
        pairs = self_match_pairs(entities)
        for pair in pairs:
            assert "(" in pair.entity.title
            assert pair.mention.surface.lower() in pair.entity.description.lower()

    def test_zero_shot_seed_size(self, meta_data):
        _, _, _, synthetic, entities = meta_data
        seed = build_zero_shot_seed(synthetic, entities, size=10, seed=1)
        assert 0 < len(seed) <= 10

    def test_zero_shot_seed_validation(self, meta_data):
        _, _, _, synthetic, entities = meta_data
        with pytest.raises(ValueError):
            build_zero_shot_seed(synthetic, entities, size=0)


class TestMetaTrainers:
    def test_meta_biencoder_training_runs(self, meta_data, tiny_tokenizer):
        _, _, seed_pairs, synthetic, _ = meta_data
        trainer = MetaBlinkTrainer(tiny_tokenizer, BI_CFG, CX_CFG, META_JVP)
        report = trainer.train(
            synthetic[:24], seed_pairs, train_crossencoder=False, finetune_on_seed=False, seed=0
        )
        history = report.biencoder_loss
        assert len(history.series("loss")) == 1
        assert 0.0 <= history.last("selected_fraction") <= 1.0
        assert report.skipped_steps == history.last("skipped_steps")

    def test_meta_biencoder_validation(self, meta_data, tiny_tokenizer):
        _, _, seed_pairs, synthetic, _ = meta_data
        trainer = MetaBlinkTrainer(tiny_tokenizer, BI_CFG, CX_CFG, META_JVP)
        with pytest.raises(ValueError):
            trainer.train([], seed_pairs)
        with pytest.raises(ValueError):
            trainer.train(synthetic[:4], [])

    def test_weighted_update_uses_reweighter_loss(self, meta_data, tiny_tokenizer, monkeypatch):
        # Regression (Alg. 1 / Eq. 15): the weighted parameter update must be
        # taken under the same loss the reweighter derived the weights for —
        # the task's prepared closure — and with exactly those weights.
        _, _, seed_pairs, synthetic, _ = meta_data
        model = BiEncoder(BI_CFG, tiny_tokenizer)
        task = BiEncoderMetaTask(model)
        engine = MetaTrainingEngine.for_stage(model, task, BI_CFG, meta_config=META_JVP)

        probed, updated = [], []
        original_compute = engine.reweighter.compute_weights
        original_prepare = task.prepare

        def record_compute(batch, seed_batch):
            result = original_compute(batch, seed_batch)
            probed.append(([pair.mention.mention_id for pair in batch], result.weights))
            return result

        def record_prepare(pairs):
            run = original_prepare(pairs)

            def recording_run(reduction="sum", sample_weights=None):
                if sample_weights is not None:
                    updated.append(([pair.mention.mention_id for pair in pairs], sample_weights))
                return run(reduction=reduction, sample_weights=sample_weights)

            return recording_run

        monkeypatch.setattr(engine.reweighter, "compute_weights", record_compute)
        monkeypatch.setattr(task, "prepare", record_prepare)
        history = engine.fit(synthetic[:16], seed_pairs, epochs=1, seed=0)

        trained = [entry for entry in probed if entry[1].sum() > 0]
        assert trained and len(updated) == len(trained)
        for (probed_ids, probed_weights), (updated_ids, updated_weights) in zip(trained, updated):
            assert probed_ids == updated_ids
            assert np.array_equal(probed_weights, updated_weights)
        # The update passes non-uniform meta weights through that loss.
        assert any(len(set(weights.tolist())) > 1 for _, weights in updated)
        assert len(history.series("loss")) == 1

    def test_metablink_end_to_end(self, meta_data, tiny_tokenizer):
        domain, split, seed_pairs, synthetic, entities = meta_data
        trainer = MetaBlinkTrainer(tiny_tokenizer, BI_CFG, CX_CFG, META_JVP)
        report = trainer.train(
            synthetic[:24], seed_pairs, candidate_pool=entities,
            max_crossencoder_examples=8, seed=0,
        )
        assert report.biencoder_loss is not None
        assert report.crossencoder_loss is not None
        assert 0.0 <= report.mean_selected_fraction <= 1.0
        predictions = trainer.predict(split.test[:6], entities, k=4)
        assert len(predictions) == 6

    def test_metablink_without_crossencoder(self, meta_data, tiny_tokenizer):
        _, _, seed_pairs, synthetic, entities = meta_data
        trainer = MetaBlinkTrainer(tiny_tokenizer, BI_CFG, CX_CFG, META_JVP)
        report = trainer.train(
            synthetic[:16], seed_pairs, candidate_pool=entities,
            train_crossencoder=False, finetune_on_seed=False, seed=0,
        )
        assert report.crossencoder_loss is None
