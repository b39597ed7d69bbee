"""Tests for the batched serving pipeline (repro.serving)."""

import numpy as np
import pytest

from repro.data import split_domain
from repro.linking import BlinkPipeline, CrossEncoder
from repro.serving import EntityLinkingPipeline, LinkingResult
from repro.utils.config import BiEncoderConfig, CrossEncoderConfig, EncoderConfig

ENC = EncoderConfig(model_dim=16, num_layers=1, num_heads=2, hidden_dim=32, max_length=32)
BI_CFG = BiEncoderConfig(encoder=ENC, epochs=1, batch_size=8, learning_rate=5e-3)
CX_CFG = CrossEncoderConfig(encoder=ENC, epochs=1, batch_size=4, num_candidates=3, learning_rate=5e-3)


@pytest.fixture(scope="module")
def serving_setup(tiny_corpus, tiny_tokenizer):
    split = split_domain(tiny_corpus, "lego", seed_size=20, dev_size=10)
    entities = tiny_corpus.entities("lego")
    blink = BlinkPipeline(tiny_tokenizer, BI_CFG, CX_CFG)
    return blink, entities, split.test[:12]


class TestEntityLinkingPipeline:
    def test_link_returns_structured_results(self, serving_setup):
        blink, entities, mentions = serving_setup
        pipeline = EntityLinkingPipeline.from_blink(blink, entities, k=4)
        results = pipeline.link(mentions)
        assert len(results) == len(mentions)
        for mention, result in zip(mentions, results):
            assert isinstance(result, LinkingResult)
            assert result.mention_id == mention.mention_id
            assert result.gold_entity_id == mention.gold_entity_id
            assert len(result.candidate_ids) == 4
            assert len(result.retrieval_scores) == 4
            assert result.rerank_scores is not None
            assert len(result.rerank_scores) == 4
            assert result.predicted_entity_id in result.candidate_ids
            # Retrieval scores are ranked by decreasing inner product.
            assert result.retrieval_scores == sorted(result.retrieval_scores, reverse=True)

    def test_batch_size_invariance(self, serving_setup):
        blink, entities, mentions = serving_setup
        index = blink.biencoder.build_sharded_index(entities)
        big = EntityLinkingPipeline(blink.biencoder, index, blink.crossencoder, k=4, batch_size=64)
        small = EntityLinkingPipeline(blink.biencoder, index, blink.crossencoder, k=4, batch_size=3)
        big_results = big.link(mentions)
        small_results = small.link(mentions)
        for a, b in zip(big_results, small_results):
            assert a.candidate_ids == b.candidate_ids
            assert a.predicted_entity_id == b.predicted_entity_id

    def test_matches_blink_predict(self, serving_setup):
        # The research path returns the serving path's results unchanged:
        # dataclass equality covers ids, retrieval scores and rerank scores.
        blink, entities, mentions = serving_setup
        predictions = blink.predict(mentions, entities, k=4)
        serving = EntityLinkingPipeline.from_blink(blink, entities, k=4, route_by_domain=False)
        assert predictions == serving.link(mentions)
        assert all(isinstance(prediction, LinkingResult) for prediction in predictions)

    def test_rerank_disabled_predicts_top_candidate(self, serving_setup):
        blink, entities, mentions = serving_setup
        pipeline = EntityLinkingPipeline.from_blink(blink, entities, k=4, rerank=False)
        for result in pipeline.link(mentions):
            assert result.rerank_scores is None
            assert result.predicted_entity_id == result.candidate_ids[0]

    def test_no_crossencoder_means_no_rerank(self, serving_setup):
        blink, entities, mentions = serving_setup
        index = blink.biencoder.build_sharded_index(entities)
        pipeline = EntityLinkingPipeline(blink.biencoder, index, crossencoder=None, k=4)
        assert pipeline.rerank is False
        result = pipeline.link(mentions[:1])[0]
        assert result.predicted_entity_id == result.candidate_ids[0]

    def test_empty_input(self, serving_setup):
        blink, entities, _ = serving_setup
        pipeline = EntityLinkingPipeline.from_blink(blink, entities, k=4)
        assert pipeline.link([]) == []

    def test_link_one(self, serving_setup):
        blink, entities, mentions = serving_setup
        pipeline = EntityLinkingPipeline.from_blink(blink, entities, k=4)
        result = pipeline.link_one(mentions[0])
        assert result.mention_id == mentions[0].mention_id

    def test_stats_accumulate(self, serving_setup):
        blink, entities, mentions = serving_setup
        pipeline = EntityLinkingPipeline.from_blink(blink, entities, k=4, batch_size=4)
        pipeline.link(mentions[:8])
        stats = pipeline.stats
        assert stats.mentions == 8
        assert stats.batches == 2
        assert set(stats.stage_seconds) == {"tokenize", "embed", "retrieve", "rerank"}
        assert stats.throughput() > 0
        stats.reset()
        assert stats.mentions == 0 and stats.total_seconds == 0.0

    def test_from_blink_requires_entities_or_index(self, serving_setup):
        blink, _, _ = serving_setup
        with pytest.raises(TypeError):
            EntityLinkingPipeline.from_blink(blink)

    def test_invalid_parameters_rejected(self, serving_setup):
        blink, entities, _ = serving_setup
        with pytest.raises(ValueError):
            EntityLinkingPipeline.from_blink(blink, entities, k=0)
        with pytest.raises(ValueError):
            EntityLinkingPipeline.from_blink(blink, entities, batch_size=0)


class TestBatchedEncoders:
    def test_embed_mentions_chunking_matches_single_pass(self, serving_setup):
        blink, _, mentions = serving_setup
        chunked = blink.biencoder.embed_mentions(mentions, batch_size=5)
        single = blink.biencoder.embed_mentions(mentions, batch_size=None)
        assert chunked.shape == single.shape
        assert np.allclose(chunked, single)

    def test_embed_entities_empty_sequence(self, serving_setup):
        blink, _, _ = serving_setup
        vectors = blink.biencoder.embed_entities([])
        assert vectors.shape == (0, ENC.model_dim)

    def test_crossencoder_batch_matches_per_mention(self, serving_setup, tiny_tokenizer):
        blink, entities, mentions = serving_setup
        model = CrossEncoder(CX_CFG, tiny_tokenizer)
        candidate_lists = [entities[:4], entities[2:5], []]
        batch_scores = model.score_candidate_batch(mentions[:3], candidate_lists)
        assert len(batch_scores) == 3
        assert batch_scores[2].shape == (0,)
        for mention, candidates, scores in zip(mentions[:3], candidate_lists, batch_scores):
            if not candidates:
                continue
            single = model.score_candidates(mention, candidates)
            assert np.allclose(scores, single, atol=1e-9)

    def test_crossencoder_predict_batch(self, serving_setup, tiny_tokenizer):
        blink, entities, mentions = serving_setup
        model = CrossEncoder(CX_CFG, tiny_tokenizer)
        best = model.predict_batch(mentions[:2], [entities[:3], []])
        assert best[0] in entities[:3]
        assert best[1] is None

    def test_candidate_features_match_lexical_features(self, serving_setup, tiny_tokenizer):
        # The cached fast path must stay byte-for-byte equivalent to the
        # reference implementation the unit tests pin down.
        from repro.linking.crossencoder import LEXICAL_FEATURE_SCALE, lexical_features

        blink, entities, mentions = serving_setup
        model = CrossEncoder(CX_CFG, tiny_tokenizer)
        for mention in mentions[:4]:
            reference = np.stack(
                [lexical_features(mention, candidate) for candidate in entities[:6]]
            ) * LEXICAL_FEATURE_SCALE
            fast = model._candidate_features(mention, entities[:6])
            assert np.allclose(fast, reference)

    def test_cross_input_ids_match_tokenizer_encode_cross(self, serving_setup, tiny_tokenizer):
        from repro.linking.encoders import encode_cross_inputs

        blink, entities, mentions = serving_setup
        model = CrossEncoder(CX_CFG, tiny_tokenizer)
        for mention in mentions[:4]:
            reference = encode_cross_inputs(
                mention, entities[:6], tiny_tokenizer, CX_CFG.encoder.max_length
            )
            assert np.array_equal(model._cross_input_ids(mention, entities[:6]), reference)

    def test_crossencoder_batch_alignment_validated(self, serving_setup, tiny_tokenizer):
        blink, entities, mentions = serving_setup
        model = CrossEncoder(CX_CFG, tiny_tokenizer)
        with pytest.raises(ValueError):
            model.score_candidate_batch(mentions[:2], [entities[:2]])
