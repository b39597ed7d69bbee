"""Unit tests for the training engine (repro.training)."""

import logging
from dataclasses import replace

import numpy as np
import pytest

from repro.data import pairs_from_mentions, split_domain
from repro.generation import build_exact_match_data
from repro.linking import (
    BiEncoder,
    BiEncoderTrainer,
    CrossEncoder,
    CrossEncoderTrainer,
    DL4ELTrainer,
    build_ranking_examples,
    encode_pair_batch,
)
from repro.meta import few_shot_seed
from repro.nn import Adam, clip_grad_norm
from repro.training import (
    BiEncoderMetaTask,
    CrossEncoderMetaTask,
    MetaTrainingEngine,
    TrainingEngine,
)
from repro.utils.config import BiEncoderConfig, CrossEncoderConfig, EncoderConfig, MetaConfig
from repro.utils.rng import batched_indices

ENC = EncoderConfig(model_dim=16, num_layers=1, num_heads=2, hidden_dim=32, max_length=32)
BI_CFG = BiEncoderConfig(encoder=ENC, epochs=2, batch_size=8, learning_rate=5e-3)
# Dropout off: an encoder's dropout layers share one generator, so one batched
# forward and a forward per example draw different masks for the same rows.
CX_CFG = CrossEncoderConfig(encoder=replace(ENC, dropout=0.0), epochs=2, batch_size=4,
                            num_candidates=3, learning_rate=5e-3)
META_JVP = MetaConfig()


@pytest.fixture(scope="module")
def engine_data(tiny_corpus):
    domain = "yugioh"
    split = split_domain(tiny_corpus, domain, seed_size=20, dev_size=10)
    seed_pairs = few_shot_seed(pairs_from_mentions(tiny_corpus, domain, split.train, source="seed"))
    synthetic = build_exact_match_data(tiny_corpus, domain, per_entity=2)[:24]
    entities = tiny_corpus.entities(domain)
    return seed_pairs, synthetic, entities


def make_engine(tokenizer, entities, epochs=2, meta_config=META_JVP):
    model = BiEncoder(BI_CFG, tokenizer)
    task = BiEncoderMetaTask(model)
    engine = MetaTrainingEngine(
        model,
        task,
        learning_rate=BI_CFG.learning_rate,
        batch_size=BI_CFG.batch_size,
        epochs=epochs,
        max_grad_norm=BI_CFG.max_grad_norm,
        meta_config=meta_config,
    )
    return model, engine


class TestEngineBasics:
    def test_history_matches_trainer_contract(self, engine_data, tiny_tokenizer):
        seed_pairs, synthetic, entities = engine_data
        _, engine = make_engine(tiny_tokenizer, entities)
        history = engine.fit(synthetic, seed_pairs, epochs=2, seed=0)
        assert len(history.series("loss")) == 2
        assert 0.0 <= history.last("selected_fraction") <= 1.0

    def test_empty_inputs_rejected(self, engine_data, tiny_tokenizer):
        seed_pairs, synthetic, entities = engine_data
        _, engine = make_engine(tiny_tokenizer, entities)
        with pytest.raises(ValueError):
            engine.fit([], seed_pairs)
        with pytest.raises(ValueError):
            engine.fit(synthetic, [])

    def test_step_metrics_are_structured(self, engine_data, tiny_tokenizer):
        seed_pairs, synthetic, entities = engine_data
        _, engine = make_engine(tiny_tokenizer, entities)
        engine.fit(synthetic, seed_pairs, epochs=1, seed=0)
        assert engine.step_metrics, "no step metrics recorded"
        for record in engine.step_metrics:
            assert record.epoch == 0
            assert record.learning_rate > 0.0
            assert 0.0 <= record.selected_fraction <= 1.0
            assert record.seed_gradient_norm >= 0.0
            assert record.duration_s >= 0.0
            assert record.skipped or np.isfinite(record.loss)
        assert [r.step for r in engine.step_metrics] == list(range(len(engine.step_metrics)))

    def test_constant_rate_without_schedule(self, engine_data, tiny_tokenizer):
        seed_pairs, synthetic, entities = engine_data
        _, engine = make_engine(tiny_tokenizer, entities)
        engine.fit(synthetic, seed_pairs, epochs=2, seed=0)
        assert {r.learning_rate for r in engine.step_metrics} == {BI_CFG.learning_rate}
        assert engine.optimizer.lr == BI_CFG.learning_rate


# ----------------------------------------------------------------------
# Reference loops: the per-trainer epoch loops the engine replaced, written
# out.  The trainers must reproduce them (same RNG draws, same op order).
# ----------------------------------------------------------------------
def reference_biencoder_fit(model, pairs, config, epochs, seed, batch_weights=None, optimizer=None):
    """The bi-encoder loop; ``batch_weights(mention_ids, entity_ids)`` supplies
    per-example weights for the ``Σ w·l / Σ w`` objective (None: the mean loss).
    Pass ``optimizer`` to continue an earlier run's Adam state."""
    batch = encode_pair_batch(pairs, model.tokenizer, config.encoder.max_length)
    optimizer = optimizer or Adam(model.parameters(), lr=config.learning_rate)
    rng = np.random.default_rng(seed)
    history = []
    model.train()
    for _ in range(epochs):
        losses = []
        for index_batch in batched_indices(len(batch), config.batch_size, rng):
            if len(index_batch) < 2:
                continue
            mention_ids, entity_ids = batch.mention_ids[index_batch], batch.entity_ids[index_batch]
            if batch_weights is None:
                loss = model.batch_loss(mention_ids, entity_ids)
            else:
                weights = batch_weights(mention_ids, entity_ids)
                loss = model.batch_loss(
                    mention_ids, entity_ids, sample_weights=weights, reduction="sum"
                ) * (1.0 / weights.sum())
            model.zero_grad()
            loss.backward()
            clip_grad_norm(model.parameters(), config.max_grad_norm)
            optimizer.step()
            losses.append(loss.item())
        history.append(float(np.mean(losses)))
    model.eval()
    return history


def reference_crossencoder_fit(model, examples, config, epochs, seed):
    """The cross-encoder loop, one ``example_loss`` at a time."""
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    rng = np.random.default_rng(seed)
    history = []
    model.train()
    for _ in range(epochs):
        losses = []
        for index_batch in batched_indices(len(examples), config.batch_size, rng):
            total, weight_sum = None, 0.0
            for example in (examples[i] for i in index_batch):
                example_loss = model.example_loss(example) * example.weight
                total = example_loss if total is None else total + example_loss
                weight_sum += example.weight
            loss = total * (1.0 / weight_sum)
            model.zero_grad()
            loss.backward()
            clip_grad_norm(model.parameters(), config.max_grad_norm)
            optimizer.step()
            losses.append(loss.item())
        history.append(float(np.mean(losses)))
    model.eval()
    return history


class TestOneLoop:
    def test_biencoder_trainer_equals_reference_loop(self, engine_data, tiny_tokenizer):
        seed_pairs, synthetic, _ = engine_data
        pairs = synthetic + seed_pairs  # 44 pairs: a trailing partial batch too
        reference = BiEncoder(BI_CFG, tiny_tokenizer)
        reference_history = reference_biencoder_fit(reference, pairs, BI_CFG, epochs=2, seed=3)
        model = BiEncoder(BI_CFG, tiny_tokenizer)
        history = BiEncoderTrainer(model, BI_CFG).fit(pairs, epochs=2, seed=3)
        assert np.allclose(history.series("loss"), reference_history, rtol=0, atol=1e-12)
        assert np.allclose(
            model.flatten_parameters(), reference.flatten_parameters(), rtol=0, atol=1e-12
        )

    def test_dl4el_trainer_equals_reference_loop(self, engine_data, tiny_tokenizer):
        seed_pairs, synthetic, _ = engine_data
        pairs = synthetic + seed_pairs
        reference = BiEncoder(BI_CFG, tiny_tokenizer)
        denoise = DL4ELTrainer(reference, BI_CFG, noise_ratio=0.3)._denoising_weights
        reference_history = reference_biencoder_fit(
            reference, pairs, BI_CFG, epochs=2, seed=3,
            batch_weights=lambda mention_ids, entity_ids: denoise(
                reference.batch_loss(mention_ids, entity_ids, reduction="none").data
            ),
        )
        model = BiEncoder(BI_CFG, tiny_tokenizer)
        history = DL4ELTrainer(model, BI_CFG, noise_ratio=0.3).fit(pairs, epochs=2, seed=3)
        assert np.allclose(history.series("loss"), reference_history, rtol=0, atol=1e-12)
        assert np.allclose(
            model.flatten_parameters(), reference.flatten_parameters(), rtol=0, atol=1e-12
        )

    def test_weighted_pairs_follow_the_one_objective(self, engine_data, tiny_tokenizer):
        """A non-unit ``pair.weight`` enters as Σ w·l / Σ w, like every other weight."""
        seed_pairs, synthetic, _ = engine_data
        pairs = [pair.reweighted(0.25 + (i % 4)) for i, pair in enumerate(synthetic)]
        weights = np.array([pair.weight for pair in pairs])
        batch = encode_pair_batch(pairs, tiny_tokenizer, ENC.max_length)
        reference = BiEncoder(BI_CFG, tiny_tokenizer)
        # The reference loop sees tokenized ids only: recover each row's weight
        # from its position in the full id matrix.
        row_of = {ids.tobytes(): i for i, ids in enumerate(batch.mention_ids)}
        reference_history = reference_biencoder_fit(
            reference, pairs, BI_CFG, epochs=1, seed=3,
            batch_weights=lambda mention_ids, _: weights[[row_of[ids.tobytes()] for ids in mention_ids]],
        )
        model = BiEncoder(BI_CFG, tiny_tokenizer)
        history = BiEncoderTrainer(model, BI_CFG).fit(pairs, epochs=1, seed=3)
        assert np.allclose(history.series("loss"), reference_history, rtol=0, atol=1e-12)

    def test_crossencoder_trainer_equals_per_example_reference(self, engine_data, tiny_tokenizer):
        seed_pairs, synthetic, entities = engine_data
        examples = build_ranking_examples(synthetic[:14], entities, CX_CFG.num_candidates, seed=0)
        reference = CrossEncoder(CX_CFG, tiny_tokenizer)
        reference_history = reference_crossencoder_fit(reference, examples, CX_CFG, epochs=1, seed=3)
        model = CrossEncoder(CX_CFG, tiny_tokenizer)
        trainer = CrossEncoderTrainer(model, CX_CFG)
        history = trainer.fit(examples, epochs=1, seed=3)
        assert len(trainer.engine.step_metrics) == 4  # 14 examples: the lone trailing pair trains too
        assert np.allclose(history.series("loss"), reference_history, rtol=0, atol=1e-9)

    def test_meta_engine_with_unit_weights_is_the_biencoder_trainer(self, engine_data, tiny_tokenizer):
        """Alg. 1 differs from BLINK's training only in ``w_j``."""
        seed_pairs, synthetic, entities = engine_data
        plain = BiEncoder(BI_CFG, tiny_tokenizer)
        plain_history = BiEncoderTrainer(plain, BI_CFG).fit(synthetic, epochs=2, seed=5)
        model, engine = make_engine(tiny_tokenizer, entities)
        engine.weighting = lambda batch: np.ones(len(batch))
        history = engine.fit(synthetic, seed_pairs, epochs=2, seed=5)
        assert history.series("loss") == plain_history.series("loss")
        assert np.array_equal(model.flatten_parameters(), plain.flatten_parameters())

    def test_a_second_fit_trains_again_under_its_own_seed(self, engine_data, tiny_tokenizer):
        _, synthetic, _ = engine_data
        model = BiEncoder(BI_CFG, tiny_tokenizer)
        engine = TrainingEngine.for_stage(model, BiEncoderMetaTask(model), BI_CFG)
        engine.fit(synthetic, epochs=1, seed=0)
        steps = len(engine.step_metrics)
        engine.fit(synthetic, epochs=1, seed=7)
        assert steps > 0 and len(engine.step_metrics) == 2 * steps

        reference = BiEncoder(BI_CFG, tiny_tokenizer)
        optimizer = Adam(reference.parameters(), lr=BI_CFG.learning_rate)
        reference_biencoder_fit(reference, synthetic, BI_CFG, epochs=1, seed=0, optimizer=optimizer)
        reference_biencoder_fit(reference, synthetic, BI_CFG, epochs=1, seed=7, optimizer=optimizer)
        assert np.allclose(
            model.flatten_parameters(), reference.flatten_parameters(), rtol=0, atol=1e-12
        )


def recording(weighting, drawn):
    """``weighting``, also appending each ``(batch, weights)`` it returns to ``drawn``."""
    def weigh(batch):
        weights = weighting(batch)
        drawn.append((list(batch), np.array(weights, dtype=np.float64)))
        return weights
    return weigh


def reference_replay(model, task, drawn, config):
    """Algorithm 1's update written out: one clipped Adam step on
    ``Σ w_j l_j / Σ w_j`` per recorded batch, none for an all-zero one."""
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    losses = []
    model.train()
    for batch, weights in drawn:
        if weights.sum() <= 0.0:
            continue
        loss = task.weighted_loss(batch, weights)
        model.zero_grad()
        loss.backward()
        clip_grad_norm(model.parameters(), config.max_grad_norm)
        optimizer.step()
        losses.append(loss.item())
    model.eval()
    return losses


class TestAlgorithmOneUpdate:
    """The meta engine's update under the reweighter's own weights, which it
    computes between batches with zero-grad cycles of its own, is exactly
    one update per weighted batch."""

    @pytest.mark.parametrize("stage", ["biencoder", "crossencoder"])
    def test_meta_engine_equals_reference_replaying_its_weights(
        self, engine_data, tiny_tokenizer, stage
    ):
        seed_pairs, synthetic, entities = engine_data
        if stage == "biencoder":
            config, make_model, make_task = BI_CFG, BiEncoder, BiEncoderMetaTask
            items, guide = synthetic, seed_pairs
        else:
            # Dropout on: the reweighter's probes must not draw from its stream.
            config, make_model, make_task = replace(CX_CFG, encoder=ENC), CrossEncoder, CrossEncoderMetaTask
            items = build_ranking_examples(synthetic[:12], entities, config.num_candidates, seed=0)
            guide = build_ranking_examples(seed_pairs[:8], entities, config.num_candidates, seed=1)
        model = make_model(config, tiny_tokenizer)
        engine = MetaTrainingEngine.for_stage(model, make_task(model), config, meta_config=META_JVP)
        drawn = []
        engine.weighting = recording(engine.weighting, drawn)
        engine.fit(items, guide, epochs=2, seed=4)
        trained = [(b, w) for b, w in drawn if w.sum() > 0.0]
        assert trained and any(np.unique(w).size > 1 for _, w in trained)

        reference = make_model(config, tiny_tokenizer)
        losses = reference_replay(reference, make_task(reference), drawn, config)
        assert losses == [m.loss for m in engine.step_metrics if not m.skipped]
        assert np.array_equal(model.flatten_parameters(), reference.flatten_parameters())


class TestSkippedSteps:
    def test_all_zero_weights_skip_every_step_and_warn_once(
        self, engine_data, tiny_tokenizer, caplog
    ):
        seed_pairs, synthetic, entities = engine_data
        model, engine = make_engine(tiny_tokenizer, entities)
        engine.weighting = lambda batch: np.zeros(len(batch))
        before = model.flatten_parameters()
        with caplog.at_level(logging.WARNING, logger="repro.training.engine"):
            history = engine.fit(synthetic, seed_pairs, epochs=2, seed=0)
        assert engine.step_metrics and all(record.skipped for record in engine.step_metrics)
        assert history.last("skipped_steps") == len(engine.step_metrics)
        assert history.last("selected_fraction") == 0.0
        assert engine.optimizer._step_count == 0
        assert np.array_equal(before, model.flatten_parameters())
        warnings = [r for r in caplog.records if r.name == "repro.training.engine"]
        assert len(warnings) == 1 and "skipped" in warnings[0].getMessage()

    def test_trained_steps_are_not_reported_skipped(self, engine_data, tiny_tokenizer, caplog):
        _, synthetic, _ = engine_data
        trainer = BiEncoderTrainer(BiEncoder(BI_CFG, tiny_tokenizer), BI_CFG)
        with caplog.at_level(logging.WARNING, logger="repro.training.engine"):
            history = trainer.fit(synthetic, epochs=1, seed=0)
        assert history.last("skipped_steps") == 0 and history.last("selected_fraction") == 1.0
        assert not caplog.records
