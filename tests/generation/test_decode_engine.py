"""Decode-engine regression suite: KV-cache parity and bucketing.

The KV-cached :meth:`Seq2SeqModel.greedy_decode` must be token-for-token
identical to the naive full-re-forward reference across every constraint
path, and length-bucketed ``rewrite_entities`` must return outputs in input
order.
"""

import numpy as np
import pytest

from repro.generation import MentionRewriter, Seq2SeqModel, source_domain_pairs
from repro.utils.config import RewriterConfig


@pytest.fixture(scope="module")
def decode_model():
    """An untrained (but deterministic) seq2seq with mixed-length sources."""
    config = RewriterConfig(
        vocab_size=90, model_dim=32, num_layers=2, num_heads=4, hidden_dim=64,
        max_source_length=16, max_target_length=10,
    )
    model = Seq2SeqModel(config, pad_id=0, bos_id=1, eos_id=2)
    rng = np.random.default_rng(7)
    sources = rng.integers(3, 90, size=(6, 16))
    sources[1, 10:] = 0
    sources[4, 6:] = 0
    return model, sources


class TestDecodeParity:
    """Cached engine vs naive reference, token for token (float64)."""

    def test_default_arguments(self, decode_model):
        model, sources = decode_model
        assert model.greedy_decode(sources) == model.greedy_decode_naive(sources)

    def test_min_length_blocks_early_eos(self, decode_model):
        model, sources = decode_model
        cached = model.greedy_decode(sources, min_length=4)
        assert cached == model.greedy_decode_naive(sources, min_length=4)
        assert all(len(row) >= 4 for row in cached)

    def test_allowed_boost_and_ban_paths(self, decode_model):
        model, sources = decode_model
        kwargs = dict(
            allowed_token_ids=[5, 9, 11, 30, 42],
            banned_token_ids=[11],
            boosted_token_ids=[9, 30],
            boost=3.0,
            min_length=2,
        )
        cached = model.greedy_decode(sources, **kwargs)
        assert cached == model.greedy_decode_naive(sources, **kwargs)
        emitted = {token for row in cached for token in row}
        assert emitted <= {5, 9, 30, 42}

    def test_early_finish_drops_rows_independently(self, decode_model):
        model, sources = decode_model
        kwargs = dict(allowed_token_ids=[5, 9, 11, 30, 42],
                      boosted_token_ids=[9, 30], boost=3.0)
        cached = model.greedy_decode(sources, **kwargs)
        assert cached == model.greedy_decode_naive(sources, **kwargs)
        lengths = {len(row) for row in cached}
        # Rows must finish at different steps so the parity run exercises
        # active-batch compaction, not just the full-length path.
        assert len(lengths) > 1

    def test_no_repetition_penalty(self, decode_model):
        model, sources = decode_model
        cached = model.greedy_decode(sources, repetition_penalty=0.0)
        assert cached == model.greedy_decode_naive(sources, repetition_penalty=0.0)

    def test_single_row_and_1d_input(self, decode_model):
        model, sources = decode_model
        assert model.greedy_decode(sources[0]) == model.greedy_decode_naive(sources[0])

    def test_per_row_constraints_match_rowwise_naive(self, decode_model):
        model, sources = decode_model
        allowed = [[5, 9, 11], [9, 30, 42], [5, 42], [11, 30], [5, 9, 30], [42, 11]]
        boosted = [[9], [30], [42], [11], [5], [42]]
        cached = model.greedy_decode(
            sources, allowed_token_ids=allowed, boosted_token_ids=boosted,
            boost=3.0, min_length=2,
        )
        rowwise = [
            model.greedy_decode_naive(
                sources[row:row + 1], allowed_token_ids=allowed[row],
                boosted_token_ids=boosted[row], boost=3.0, min_length=2,
            )[0]
            for row in range(len(sources))
        ]
        assert cached == rowwise

    def test_per_row_length_mismatch_raises(self, decode_model):
        model, sources = decode_model
        with pytest.raises(ValueError):
            model.greedy_decode(sources, allowed_token_ids=[[5, 9], [9, 30]])


class TestBucketedRewriting:
    @pytest.fixture(scope="class")
    def trained_rewriter(self, tiny_corpus, tiny_tokenizer, tiny_rewriter_config):
        rewriter = MentionRewriter(tiny_tokenizer, config=tiny_rewriter_config)
        rewriter.fit(source_domain_pairs(tiny_corpus, limit_per_domain=8), seed=0, max_pairs=50)
        return rewriter

    def test_output_order_stable_under_bucketing(self, trained_rewriter, tiny_corpus):
        """Batched (bucketed) outputs align with the input entity order."""
        entities = tiny_corpus.entities("lego")[:8] + tiny_corpus.entities("yugioh")[:8]
        batched = trained_rewriter.rewrite_entities(entities)
        single = [trained_rewriter.rewrite_entity(entity) for entity in entities]
        assert batched == single

    def test_bucketing_trims_but_preserves_descriptions_effect(self, trained_rewriter, tiny_corpus):
        # Reversing the input order must permute outputs identically.
        entities = tiny_corpus.entities("star_trek")[:10]
        forward = trained_rewriter.rewrite_entities(entities)
        backward = trained_rewriter.rewrite_entities(entities[::-1])
        assert forward == backward[::-1]

    def test_empty_entity_list(self, trained_rewriter):
        assert trained_rewriter.rewrite_entities([]) == []
