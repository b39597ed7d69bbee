"""Unit tests for the entity-linking models."""

import numpy as np
import pytest

from repro.data import pairs_from_mentions, split_domain
from repro.kb import Entity, Mention
from repro.linking import (
    BiEncoder,
    BiEncoderTrainer,
    BlinkPipeline,
    CrossEncoder,
    CrossEncoderTrainer,
    DL4ELTrainer,
    EntityShard,
    NameMatchingLinker,
    build_ranking_examples,
    encode_pair_batch,
    unique_entities,
)
from repro.linking.crossencoder import lexical_features
from repro.utils.config import BiEncoderConfig, CrossEncoderConfig, EncoderConfig

ENC = EncoderConfig(model_dim=16, num_layers=1, num_heads=2, hidden_dim=32, max_length=32)
BI_CFG = BiEncoderConfig(encoder=ENC, epochs=1, batch_size=8, learning_rate=5e-3)
CX_CFG = CrossEncoderConfig(encoder=ENC, epochs=1, batch_size=4, num_candidates=3, learning_rate=5e-3)


@pytest.fixture(scope="module")
def domain_data(tiny_corpus):
    split = split_domain(tiny_corpus, "lego", seed_size=20, dev_size=10)
    seed_pairs = pairs_from_mentions(tiny_corpus, "lego", split.train, source="seed")
    entities = tiny_corpus.entities("lego")
    return split, seed_pairs, entities


class TestEncodersAndIndex:
    def test_encode_pair_batch_shapes(self, domain_data, tiny_tokenizer):
        _, pairs, _ = domain_data
        batch = encode_pair_batch(pairs[:6], tiny_tokenizer, max_length=32)
        assert batch.mention_ids.shape == (6, 32)
        assert batch.entity_ids.shape == (6, 32)
        assert np.allclose(batch.weights, 1.0)

    def test_encode_pair_batch_empty_raises(self, tiny_tokenizer):
        with pytest.raises(ValueError):
            encode_pair_batch([], tiny_tokenizer)

    def test_unique_entities_deduplicates(self, domain_data):
        _, pairs, _ = domain_data
        uniques = unique_entities(pairs + pairs)
        ids = [e.entity_id for e in uniques]
        assert len(ids) == len(set(ids))

    def test_entity_index_search_ranks_by_inner_product(self, domain_data):
        _, _, entities = domain_data
        vectors = np.eye(len(entities))[:, : max(4, len(entities))]
        vectors = np.eye(len(entities))
        index = EntityShard(entities, vectors)
        result = index.search(vectors[3][None, :], k=2)[0]
        assert result.entity_ids[0] == entities[3].entity_id
        assert result.rank_of(entities[3].entity_id) == 0

    def test_entity_index_validates_inputs(self, domain_data):
        _, _, entities = domain_data
        with pytest.raises(ValueError):
            EntityShard(entities, np.zeros((1, 4)))
        with pytest.raises(ValueError):
            EntityShard([], np.zeros((0, 4)))

    def test_search_k_validation(self, domain_data):
        _, _, entities = domain_data
        index = EntityShard(entities, np.eye(len(entities)))
        with pytest.raises(ValueError):
            index.search(np.eye(len(entities))[:1], k=0)


class TestBiEncoder:
    def test_embeddings_are_unit_norm(self, domain_data, tiny_tokenizer):
        _, pairs, entities = domain_data
        model = BiEncoder(BI_CFG, tiny_tokenizer)
        vectors = model.embed_entities(entities[:5])
        assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=1e-6)

    def test_training_reduces_loss(self, domain_data, tiny_tokenizer):
        _, pairs, _ = domain_data
        model = BiEncoder(BI_CFG, tiny_tokenizer)
        before = model.pairs_loss(pairs[:16]).item()
        BiEncoderTrainer(model, BI_CFG).fit(pairs, epochs=2, seed=0)
        after = model.pairs_loss(pairs[:16]).item()
        assert after < before

    def test_training_improves_recall(self, domain_data, tiny_tokenizer):
        split, pairs, entities = domain_data
        model = BiEncoder(BI_CFG, tiny_tokenizer)
        gold = [m.gold_entity_id for m in split.test]

        def hits():
            results = model.build_sharded_index(entities).search(model.embed_mentions(split.test), k=5)
            return sum(result.contains(g) for result, g in zip(results, gold))

        before = hits()
        BiEncoderTrainer(model, BI_CFG).fit(pairs, epochs=2, seed=0)
        assert hits() >= before

    def test_fit_rejects_empty(self, tiny_tokenizer):
        model = BiEncoder(BI_CFG, tiny_tokenizer)
        with pytest.raises(ValueError):
            BiEncoderTrainer(model, BI_CFG).fit([])


class TestCrossEncoder:
    def test_lexical_features_ranges(self, domain_data):
        _, pairs, _ = domain_data
        features = lexical_features(pairs[0].mention, pairs[0].entity)
        assert features.shape == (3,)
        assert np.all(features >= 0.0) and np.all(features <= 1.0)

    def test_exact_title_match_feature(self):
        entity = Entity(entity_id="d:1", title="Golden Master", description="a set", domain="d")
        mention = Mention(mention_id="d:m1", surface="Golden Master", context_left="", context_right="",
                          domain="d", gold_entity_id="d:1")
        assert lexical_features(mention, entity)[2] == 1.0

    def test_build_ranking_examples_structure(self, domain_data):
        _, pairs, entities = domain_data
        examples = build_ranking_examples(pairs[:10], entities, num_candidates=3, seed=0)
        for example in examples:
            assert len(example.candidates) == 3
            assert example.candidates[example.gold_index].entity_id == \
                next(p for p in pairs if p.mention.mention_id == example.mention.mention_id).entity.entity_id
            assert len({c.entity_id for c in example.candidates}) == 3

    def test_build_ranking_examples_validation(self, domain_data):
        _, pairs, entities = domain_data
        with pytest.raises(ValueError):
            build_ranking_examples(pairs[:2], entities, num_candidates=1)
        with pytest.raises(ValueError):
            build_ranking_examples(pairs[:2], entities[:1], num_candidates=3)

    def test_rank_and_predict(self, domain_data, tiny_tokenizer):
        _, pairs, entities = domain_data
        model = CrossEncoder(CX_CFG, tiny_tokenizer)
        candidates = entities[:4]
        ranked = model.rank(pairs[0].mention, candidates)
        assert len(ranked) == 4
        assert model.predict(pairs[0].mention, candidates) is ranked[0]
        assert model.predict(pairs[0].mention, []) is None

    def test_training_reduces_loss(self, domain_data, tiny_tokenizer):
        _, pairs, entities = domain_data
        model = CrossEncoder(CX_CFG, tiny_tokenizer)
        examples = build_ranking_examples(pairs[:12], entities, num_candidates=3, seed=0)
        history = CrossEncoderTrainer(model, CX_CFG).fit(examples, epochs=2, seed=0)
        losses = history.series("loss")
        assert losses[-1] <= losses[0]

    def test_fit_rejects_empty(self, tiny_tokenizer):
        model = CrossEncoder(CX_CFG, tiny_tokenizer)
        with pytest.raises(ValueError):
            CrossEncoderTrainer(model, CX_CFG).fit([])


class TestBlinkAndBaselines:
    def test_blink_end_to_end_predictions(self, domain_data, tiny_tokenizer):
        split, pairs, entities = domain_data
        pipeline = BlinkPipeline(tiny_tokenizer, BI_CFG, CX_CFG)
        pipeline.train(pairs, candidate_pool=entities, max_crossencoder_examples=12, seed=0)
        predictions = pipeline.predict(split.test[:10], entities, k=4)
        assert len(predictions) == 10
        for prediction in predictions:
            assert len(prediction.candidate_ids) == 4
            assert prediction.predicted_entity_id in prediction.candidate_ids

    def test_blink_train_requires_pairs(self, tiny_tokenizer):
        pipeline = BlinkPipeline(tiny_tokenizer, BI_CFG, CX_CFG)
        with pytest.raises(ValueError):
            pipeline.train([])

    def test_blink_predict_empty_mentions(self, domain_data, tiny_tokenizer):
        _, _, entities = domain_data
        pipeline = BlinkPipeline(tiny_tokenizer, BI_CFG, CX_CFG)
        assert pipeline.predict([], entities) == []

    def test_dl4el_trainer_runs(self, domain_data, tiny_tokenizer):
        _, pairs, _ = domain_data
        model = BiEncoder(BI_CFG, tiny_tokenizer)
        history = DL4ELTrainer(model, BI_CFG, noise_ratio=0.3).fit(pairs, epochs=1, seed=0)
        assert len(history.series("loss")) == 1

    def test_dl4el_validation(self, domain_data, tiny_tokenizer):
        model = BiEncoder(BI_CFG, tiny_tokenizer)
        with pytest.raises(ValueError):
            DL4ELTrainer(model, noise_ratio=1.5)
        with pytest.raises(ValueError):
            DL4ELTrainer(model, temperature=0.0)

    def test_dl4el_weights_keep_low_loss_examples(self, domain_data, tiny_tokenizer):
        model = BiEncoder(BI_CFG, tiny_tokenizer)
        trainer = DL4ELTrainer(model, BI_CFG, noise_ratio=0.5)
        weights = trainer._denoising_weights(np.array([0.1, 5.0, 0.2, 4.0]))
        assert weights[0] > weights[1]
        assert weights[2] > weights[3]

    def test_name_matching_baseline(self, domain_data):
        split, _, entities = domain_data
        linker = NameMatchingLinker(entities)
        accuracy = linker.accuracy(split.test)
        coverage = linker.coverage(split.test)
        assert 0.0 <= accuracy <= 1.0
        assert accuracy <= coverage

    def test_name_matching_empty_mentions(self, domain_data):
        _, _, entities = domain_data
        linker = NameMatchingLinker(entities)
        assert linker.accuracy([]) == 0.0
        assert linker.coverage([]) == 0.0


class TestEntityCacheEviction:
    def test_overwrite_at_capacity_does_not_evict(self, monkeypatch):
        # Regression: rewriting an existing key used to evict an unrelated
        # (oldest) entry even though the cache was not growing.
        from repro.linking import crossencoder

        monkeypatch.setattr(crossencoder, "ENTITY_CACHE_CAPACITY", 2)
        cache = {}
        crossencoder._cache_put(cache, "a", 1)
        crossencoder._cache_put(cache, "b", 2)
        crossencoder._cache_put(cache, "a", 3)  # overwrite while full
        assert cache == {"a": 3, "b": 2}

    def test_new_key_at_capacity_evicts_oldest(self, monkeypatch):
        from repro.linking import crossencoder

        monkeypatch.setattr(crossencoder, "ENTITY_CACHE_CAPACITY", 2)
        cache = {}
        crossencoder._cache_put(cache, "a", 1)
        crossencoder._cache_put(cache, "b", 2)
        crossencoder._cache_put(cache, "c", 3)
        assert cache == {"b": 2, "c": 3}

    def test_eviction_tolerates_a_concurrent_evictor(self, monkeypatch, tiny_tokenizer):
        # Thread replicas share one CrossEncoder, so its caches are mutated
        # from several threads at once.  ``del cache[next(iter(cache))]`` died
        # with KeyError (same oldest key deleted twice) or "dictionary changed
        # size during iteration", failing every request of the batch.
        import sys
        import threading
        import time

        from repro.linking import crossencoder

        capacity, num_threads = 4, 4
        monkeypatch.setattr(crossencoder, "ENTITY_CACHE_CAPACITY", capacity)
        model = CrossEncoder(CX_CFG, tiny_tokenizer)
        shared = {}
        errors = []
        deadline = time.monotonic() + 1.0

        def hammer(worker):
            serial = 0
            try:
                while time.monotonic() < deadline:
                    serial += 1
                    key = f"w{worker}-{serial}"
                    crossencoder._cache_put(shared, key, serial)
                    model._entity_suffix_ids(Entity(key, f"title {serial}", "a description", "lego"))
                    sizes = len(shared), len(model._entity_suffix_cache)
                    assert max(sizes) <= capacity + num_threads, sizes
            except BaseException as error:  # reported by the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(n,)) for n in range(num_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(shared) <= capacity + num_threads
        assert len(model._entity_suffix_cache) <= capacity + num_threads
