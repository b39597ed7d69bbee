"""Tests for the incremental decoding primitives."""

import numpy as np
import pytest

from repro.nn import (
    MultiHeadAttention,
    PositionalEmbedding,
    Tensor,
    TransformerDecoder,
    TransformerEncoder,
    no_grad,
)
from repro.nn.attention import _causal_bias


@pytest.fixture(scope="module")
def decoder_setup():
    encoder = TransformerEncoder(
        vocab_size=60, model_dim=32, num_layers=2, num_heads=4, hidden_dim=64, max_length=14
    ).eval()
    decoder = TransformerDecoder(
        vocab_size=60, model_dim=32, num_layers=2, num_heads=4, hidden_dim=64, max_length=10
    ).eval()
    rng = np.random.default_rng(5)
    source = rng.integers(3, 60, size=(4, 12))
    source[0, 8:] = 0
    source[2, 5:] = 0
    target = rng.integers(3, 60, size=(4, 9))
    return encoder, decoder, source, target


class TestKVCachedDecoder:
    def test_single_token_steps_match_full_forward(self, decoder_setup):
        encoder, decoder, source, target = decoder_setup
        with no_grad():
            memory = encoder(source)
            mask = source == 0
            full = decoder(target, memory, memory_padding_mask=mask).data
            state = decoder.init_state(memory, mask)
            chunks = [decoder.forward_step(target[:, t:t + 1], state).data
                      for t in range(target.shape[1])]
        incremental = np.concatenate(chunks, axis=1)
        np.testing.assert_allclose(incremental, full, atol=1e-12)

    def test_multi_token_prefill_matches_full_forward(self, decoder_setup):
        encoder, decoder, source, target = decoder_setup
        with no_grad():
            memory = encoder(source)
            mask = source == 0
            full = decoder(target, memory, memory_padding_mask=mask).data
            state = decoder.init_state(memory, mask)
            prefill = decoder.forward_step(target[:, :5], state).data
            rest = [decoder.forward_step(target[:, t:t + 1], state).data
                    for t in range(5, target.shape[1])]
        incremental = np.concatenate([prefill] + rest, axis=1)
        np.testing.assert_allclose(incremental, full, atol=1e-12)

    def test_select_rows_drops_finished_sequences(self, decoder_setup):
        encoder, decoder, source, target = decoder_setup
        keep = np.array([True, False, True, True])
        with no_grad():
            memory = encoder(source)
            mask = source == 0
            full = decoder(target, memory, memory_padding_mask=mask).data
            state = decoder.init_state(memory, mask)
            decoder.forward_step(target[:, :4], state)
            state.select_rows(keep)
            assert state.batch == 3
            step = decoder.forward_step(target[keep][:, 4:5], state).data
        np.testing.assert_allclose(step, full[keep][:, 4:5], atol=1e-12)

    def test_cache_overflow_raises(self, decoder_setup):
        encoder, decoder, source, target = decoder_setup
        with no_grad():
            memory = encoder(source)
            state = decoder.init_state(memory, max_length=3)
            decoder.forward_step(target[:, :3], state)
            with pytest.raises(ValueError):
                decoder.forward_step(target[:, 3:4], state)

    def test_cross_attention_projected_once(self, decoder_setup):
        encoder, decoder, source, _ = decoder_setup
        with no_grad():
            memory = encoder(source)
            state = decoder.init_state(memory, source == 0)
        layer_state = state.layers[0]
        assert layer_state.cross_k.shape == (4, 4, source.shape[1], 8)
        assert state.memory_bias.shape == (4, 1, 1, source.shape[1])


class TestCausalBiasCache:
    def test_memoized_by_shape(self):
        first = _causal_bias(4, 4, 0)
        second = _causal_bias(4, 4, 0)
        assert first is second
        assert not first.flags.writeable

    def test_offset_masks_future_keys_only(self):
        bias = _causal_bias(2, 6, 4)[0, 0]
        # Query row 0 sits at absolute position 4: keys 0..4 visible.
        assert (bias[0, :5] == 0).all() and bias[0, 5] == -1e9
        assert (bias[1] == 0).all()

    def test_attention_matches_pre_memoization_semantics(self):
        attention = MultiHeadAttention(16, 2, dropout=0.0).eval()
        x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 16)))
        with no_grad():
            causal = attention(x, causal=True).data
            # Re-run: the memoized bias must not have been mutated.
            again = attention(x, causal=True).data
        np.testing.assert_array_equal(causal, again)


class TestPositionalEmbeddingOffset:
    def test_offset_slices_the_table(self):
        embedding = PositionalEmbedding(8, 4)
        with no_grad():
            full = embedding(8).data
            window = embedding(3, offset=2).data
        np.testing.assert_array_equal(window, full[2:5])

    def test_offset_bounds_checked(self):
        embedding = PositionalEmbedding(8, 4)
        with pytest.raises(ValueError):
            embedding(4, offset=5)
        with pytest.raises(ValueError):
            embedding(3, offset=-1)

    def test_training_path_still_differentiable(self):
        embedding = PositionalEmbedding(8, 4)
        out = embedding(4, offset=1)
        out.sum().backward()
        assert embedding.weight.grad is not None
        assert np.abs(embedding.weight.grad[1:5]).sum() > 0
        assert np.abs(embedding.weight.grad[0]).sum() == 0
