"""Unit tests for repro.nn.functional."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F


class TestActivations:
    def test_gelu_midpoint(self):
        out = F.gelu(Tensor([0.0]))
        assert out.data[0] == pytest.approx(0.0, abs=1e-8)

    def test_gelu_close_to_identity_for_large_values(self):
        out = F.gelu(Tensor([10.0]))
        assert out.data[0] == pytest.approx(10.0, abs=1e-3)


class TestSoftmaxAndLosses:
    def test_softmax_sums_to_one(self):
        out = F.softmax(Tensor(np.random.default_rng(0).normal(size=(4, 7))))
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_softmax_invariant_to_shift(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        a = F.softmax(Tensor(logits))
        b = F.softmax(Tensor(logits + 100.0))
        assert np.allclose(a.data, b.data)

    def test_log_softmax_matches_log_of_softmax(self):
        logits = Tensor(np.random.default_rng(1).normal(size=(3, 5)))
        assert np.allclose(F.log_softmax(logits).data, np.log(F.softmax(logits).data))

    def test_cross_entropy_perfect_prediction_is_small(self):
        logits = Tensor(np.array([[10.0, -10.0], [-10.0, 10.0]]))
        loss = F.cross_entropy(logits, [0, 1])
        assert loss.item() < 1e-6

    def test_cross_entropy_uniform_is_log_classes(self):
        logits = Tensor(np.zeros((2, 4)))
        loss = F.cross_entropy(logits, [0, 3])
        assert loss.item() == pytest.approx(np.log(4.0))

    def test_cross_entropy_gradient_matches_softmax_minus_onehot(self):
        rng = np.random.default_rng(2)
        logits_val = rng.normal(size=(3, 4))
        logits = Tensor(logits_val.copy(), requires_grad=True)
        targets = np.array([1, 0, 3])
        F.cross_entropy(logits, targets, reduction="sum").backward()
        probs = np.exp(logits_val - logits_val.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        expected = probs - F.one_hot(targets, 4)
        assert np.allclose(logits.grad, expected, atol=1e-8)

    def test_sample_weights_scale_loss(self):
        logits = Tensor(np.zeros((2, 3)))
        unweighted = F.cross_entropy(logits, [0, 1], reduction="sum")
        weighted = F.cross_entropy(logits, [0, 1], reduction="sum", sample_weights=[2.0, 0.0])
        assert weighted.item() == pytest.approx(unweighted.item())

    def test_reduction_none_returns_per_example(self):
        logits = Tensor(np.zeros((3, 2)))
        loss = F.cross_entropy(logits, [0, 1, 0], reduction="none")
        assert loss.shape == (3,)

    def test_unknown_reduction_raises(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((1, 2))), [0], reduction="bogus")


class TestEmbeddingAndMasking:
    def test_embedding_lookup_values(self):
        weight = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = F.embedding(weight, np.array([1, 3]))
        assert np.allclose(out.data, [[3, 4, 5], [9, 10, 11]])

    def test_embedding_gradient_accumulates_per_row(self):
        weight = Tensor(np.zeros((4, 2)), requires_grad=True)
        F.embedding(weight, np.array([0, 0, 2])).sum().backward()
        assert np.allclose(weight.grad[0], [2.0, 2.0])
        assert np.allclose(weight.grad[2], [1.0, 1.0])
        assert np.allclose(weight.grad[1], [0.0, 0.0])

    def test_one_hot_shape_and_values(self):
        out = F.one_hot(np.array([0, 2]), 3)
        assert np.allclose(out, [[1, 0, 0], [0, 0, 1]])


class TestDropoutAndNormalize:
    def test_dropout_noop_in_eval(self):
        x = Tensor(np.ones((5, 5)))
        out = F.dropout(x, 0.5, training=False)
        assert out is x

    def test_dropout_scales_surviving_units(self):
        rng = np.random.default_rng(3)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.5, training=True, rng=rng)
        kept = out.data[out.data > 0]
        assert np.allclose(kept, 2.0)
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, training=True)

    def test_normalize_unit_norm(self):
        x = Tensor(np.random.default_rng(4).normal(size=(3, 8)))
        out = F.normalize(x)
        assert np.allclose(np.linalg.norm(out.data, axis=-1), 1.0)
