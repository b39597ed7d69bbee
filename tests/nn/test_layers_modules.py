"""Unit tests for Module, layers, attention and transformer stacks."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    MultiHeadAttention,
    Parameter,
    TransformerDecoder,
    TransformerEncoder,
    Tensor,
    functional as F,
)


class TinyModel(Module):
    def __init__(self):
        super().__init__()
        self.first = Linear(4, 8, rng=np.random.default_rng(0))
        self.second = Linear(8, 2, rng=np.random.default_rng(1))

    def forward(self, x):
        return self.second(F.gelu(self.first(x)))


class TestModuleProtocol:
    def test_named_parameters_are_qualified(self):
        model = TinyModel()
        names = [name for name, _ in model.named_parameters()]
        assert "first.weight" in names and "second.bias" in names

    def test_num_parameters(self):
        model = TinyModel()
        assert model.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_state_dict_roundtrip(self):
        model = TinyModel()
        other = TinyModel()
        other.load_state_dict(model.state_dict())
        for (_, a), (_, b) in zip(model.named_parameters(), other.named_parameters()):
            assert np.allclose(a.data, b.data)

    def test_load_state_dict_strict_mismatch(self):
        model = TinyModel()
        with pytest.raises(KeyError):
            model.load_state_dict({"bogus": np.zeros(3)})

    def test_load_state_dict_shape_mismatch(self):
        model = TinyModel()
        state = model.state_dict()
        state["first.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_flat_parameters_roundtrip(self):
        model = TinyModel()
        flat = model.flatten_parameters()
        model.assign_flat_parameters(flat * 0.0)
        assert all(np.allclose(p.data, 0.0) for p in model.parameters())
        model.assign_flat_parameters(flat)
        assert np.allclose(model.flatten_parameters(), flat)

    def test_assign_flat_parameters_wrong_size(self):
        model = TinyModel()
        with pytest.raises(ValueError):
            model.assign_flat_parameters(np.zeros(3))

    def test_gradient_vector_zero_when_no_grads(self):
        model = TinyModel()
        vec = model.gradient_vector()
        assert vec.shape[0] == model.num_parameters()
        assert np.allclose(vec, 0.0)

    def test_train_eval_propagates(self):
        model = ModuleList([Dropout(0.5), Linear(2, 2)])
        model.eval()
        assert all(not child.training for child in model)

    def test_zero_grad_clears(self):
        model = TinyModel()
        out = model(Tensor(np.ones((2, 4)))).sum()
        out.backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_module_list_indexing(self):
        layers = ModuleList([Linear(2, 2), Linear(2, 2)])
        assert len(layers) == 2
        assert isinstance(layers[1], Linear)


class TestLayers:
    def test_linear_shapes(self):
        layer = Linear(5, 3)
        out = layer(Tensor(np.ones((4, 5))))
        assert out.shape == (4, 3)

    def test_linear_no_bias(self):
        layer = Linear(5, 3, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_embedding_lookup_and_padding(self):
        emb = Embedding(10, 4, padding_idx=0)
        assert np.allclose(emb.weight.data[0], 0.0)
        out = emb(np.array([[1, 2], [3, 0]]))
        assert out.shape == (2, 2, 4)

    def test_embedding_out_of_range_raises(self):
        emb = Embedding(10, 4)
        with pytest.raises(IndexError):
            emb(np.array([10]))

    def test_layernorm_statistics(self):
        layer = LayerNorm(16)
        out = layer(Tensor(np.random.default_rng(0).normal(2.0, 3.0, size=(5, 16))))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_dropout_eval_identity(self):
        layer = Dropout(0.9)
        layer.eval()
        x = Tensor(np.ones((3, 3)))
        assert np.allclose(layer(x).data, 1.0)

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.5)


class TestAttentionAndTransformer:
    def test_attention_output_shape(self):
        attn = MultiHeadAttention(model_dim=16, num_heads=4)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 16)))
        assert attn(x).shape == (2, 5, 16)

    def test_attention_rejects_bad_head_count(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(model_dim=10, num_heads=3)

    def test_padding_mask_blocks_positions(self):
        attn = MultiHeadAttention(model_dim=8, num_heads=2, dropout=0.0)
        attn.eval()
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(1, 4, 8)))
        mask = np.array([[False, False, True, True]])
        out_masked = attn(x, key_padding_mask=mask)
        # Changing the masked (padding) positions must not change the output.
        perturbed = x.data.copy()
        perturbed[:, 2:, :] += 5.0
        out_perturbed = attn(Tensor(perturbed), key_padding_mask=mask)
        assert not np.allclose(out_masked.data[:, 2:, :], out_perturbed.data[:, 2:, :])
        assert np.allclose(out_masked.data[:, :2, :], out_perturbed.data[:, :2, :], atol=1e-8)

    def test_causal_mask_prevents_future_leakage(self):
        attn = MultiHeadAttention(model_dim=8, num_heads=2, dropout=0.0)
        attn.eval()
        rng = np.random.default_rng(2)
        x_val = rng.normal(size=(1, 5, 8))
        out_full = attn(Tensor(x_val), causal=True)
        changed = x_val.copy()
        changed[:, -1, :] += 10.0
        out_changed = attn(Tensor(changed), causal=True)
        assert np.allclose(out_full.data[:, :-1, :], out_changed.data[:, :-1, :], atol=1e-8)

    def test_mask_shape_validation(self):
        attn = MultiHeadAttention(model_dim=8, num_heads=2)
        x = Tensor(np.zeros((2, 4, 8)))
        with pytest.raises(ValueError):
            attn(x, key_padding_mask=np.zeros((2, 5), dtype=bool))

    def test_encoder_encode_pools_over_real_tokens(self):
        encoder = TransformerEncoder(vocab_size=30, model_dim=16, num_layers=1, num_heads=2,
                                     hidden_dim=32, max_length=12)
        encoder.eval()
        ids = np.array([[5, 6, 7, 0, 0, 0]])
        longer = np.array([[5, 6, 7, 0, 0, 0, 0, 0]])
        assert np.allclose(encoder.encode(ids).data, encoder.encode(longer).data, atol=1e-6)

    def test_encoder_max_length_guard(self):
        encoder = TransformerEncoder(vocab_size=30, model_dim=16, num_layers=1, num_heads=2,
                                     hidden_dim=32, max_length=4)
        with pytest.raises(ValueError):
            encoder(np.ones((1, 6), dtype=int))

    def test_decoder_logit_shape(self):
        encoder = TransformerEncoder(vocab_size=30, model_dim=16, num_layers=1, num_heads=2,
                                     hidden_dim=32, max_length=12)
        decoder = TransformerDecoder(vocab_size=30, model_dim=16, num_layers=1, num_heads=2,
                                     hidden_dim=32, max_length=8)
        src = np.array([[3, 4, 5, 0]])
        memory = encoder(src)
        logits = decoder(np.array([[1, 6, 7]]), memory, memory_padding_mask=(src == 0))
        assert logits.shape == (1, 3, 30)

    def test_training_step_reduces_loss(self):
        encoder = TransformerEncoder(vocab_size=20, model_dim=16, num_layers=1, num_heads=2,
                                     hidden_dim=32, max_length=8, dropout=0.0, seed=3)
        optimizer = Adam(encoder.parameters(), lr=5e-3)
        ids = np.array([[1, 2, 3, 4], [5, 6, 7, 8]])
        targets = np.array([0, 1])
        head = Linear(16, 2, rng=np.random.default_rng(5))
        optimizer_head = Adam(head.parameters(), lr=5e-3)
        losses = []
        for _ in range(15):
            logits = head(encoder.encode(ids))
            loss = F.cross_entropy(logits, targets)
            encoder.zero_grad()
            head.zero_grad()
            loss.backward()
            optimizer.step()
            optimizer_head.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]
