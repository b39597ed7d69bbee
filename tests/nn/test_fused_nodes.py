"""Fused graph nodes against the op-by-op compositions they replaced.

``F.linear`` replaced ``x.matmul(W.T) + b`` in ``Linear.forward`` and
``F.attention_weights`` replaced ``scale → + bias → softmax → dropout`` in
``MultiHeadAttention._attend``; the compositions are written out here as the
references.  With dropout generators seeded alike the masks are the same
draw, so outputs and every input gradient must agree to rounding.
"""

import numpy as np
import pytest

from repro.nn import Dropout, Linear, Tensor, no_grad
from repro.nn import functional as F
from repro.nn.attention import MultiHeadAttention, _causal_bias
from repro.nn.module import Parameter

TOLERANCE = 1e-12


def composed_linear(x, weight, bias=None):
    out = x.matmul(weight.T)
    return out if bias is None else out + bias


def composed_attention_weights(scores, scale, bias, rate, training, rng):
    scores = scores * scale
    if bias is not None:
        scores = scores + bias
    return F.dropout(F.softmax(scores, axis=-1), rate, training=training, rng=rng)


def fused_attention_weights(scores, scale, bias, rate, training, rng):
    dropout = Dropout(rate, rng=rng).train(training)
    return F.attention_weights(scores, scale, bias, dropout.keep_scale(scores.shape))


def finite_difference(loss, value, eps=1e-6):
    """Central-difference gradient of ``loss(array) -> float`` at ``value``."""
    grad = np.zeros_like(value)
    for index in np.ndindex(value.shape):
        original = value[index]
        value[index] = original + eps
        upper = loss(value)
        value[index] = original - eps
        lower = loss(value)
        value[index] = original
        grad[index] = (upper - lower) / (2 * eps)
    return grad


def relative_error(actual, expected):
    return np.abs(actual - expected).max() / max(np.abs(expected).max(), 1e-30)


# ----------------------------------------------------------------------
# F.linear
# ----------------------------------------------------------------------
class TestLinear:
    @pytest.mark.parametrize("with_bias", [True, False])
    @pytest.mark.parametrize("shape", [(5,), (3, 5), (2, 3, 5), (2, 2, 3, 5)])
    def test_matches_composition(self, shape, with_bias):
        rng = np.random.default_rng(len(shape))
        x_val, w_val, b_val = rng.normal(size=shape), rng.normal(size=(4, 5)), rng.normal(size=4)
        upstream = rng.normal(size=shape[:-1] + (4,))
        results = []
        for op in (F.linear, composed_linear):
            x = Tensor(x_val.copy(), requires_grad=True)
            w = Tensor(w_val.copy(), requires_grad=True)
            b = Tensor(b_val.copy(), requires_grad=True) if with_bias else None
            out = op(x, w, b)
            out.backward(upstream)
            results.append((out.data, x.grad, w.grad, None if b is None else b.grad))
        for fused, composed in zip(*results):
            if composed is not None:
                assert fused.shape == composed.shape
                assert np.abs(fused - composed).max() <= TOLERANCE

    def test_weight_shared_by_embedding_and_output_projection(self):
        rng = np.random.default_rng(0)
        table_val, indices = rng.normal(size=(7, 5)), np.array([[1, 4, 4], [0, 6, 2]])
        grads = []
        for op in (F.linear, composed_linear):
            table = Tensor(table_val.copy(), requires_grad=True)
            hidden = F.embedding(table, indices)
            logits = op(op(hidden, table[:5]), table)
            (logits * logits).sum().backward()
            grads.append(table.grad)
        assert np.abs(grads[0] - grads[1]).max() <= TOLERANCE * np.abs(grads[1]).max()

    def test_finite_difference_gradients(self):
        rng = np.random.default_rng(1)
        x_val, w_val, b_val = rng.normal(size=(2, 3, 5)), rng.normal(size=(4, 5)), rng.normal(size=4)
        x, w, b = (Tensor(v.copy(), requires_grad=True) for v in (x_val, w_val, b_val))
        F.linear(x, w, b).tanh().sum().backward()

        def loss(x_arr, w_arr, b_arr):
            return float(np.tanh(x_arr @ w_arr.T + b_arr).sum())

        assert relative_error(x.grad, finite_difference(lambda v: loss(v, w_val, b_val), x_val.copy())) <= 1e-6
        assert relative_error(w.grad, finite_difference(lambda v: loss(x_val, v, b_val), w_val.copy())) <= 1e-6
        assert relative_error(b.grad, finite_difference(lambda v: loss(x_val, w_val, v), b_val.copy())) <= 1e-6

    def test_no_grad_builds_no_graph(self):
        layer = Linear(5, 4, rng=np.random.default_rng(2))
        x = Tensor(np.random.default_rng(3).normal(size=(2, 3, 5)))
        with no_grad():
            out = layer(x)
        assert not out.requires_grad and out._parents == ()
        assert np.abs(out.data - (x.data @ layer.weight.data.T + layer.bias.data)).max() <= TOLERANCE


# ----------------------------------------------------------------------
# F.attention_weights
# ----------------------------------------------------------------------
def _biases(batch, query_len, key_len):
    padding = np.zeros((batch, key_len), dtype=bool)
    padding[0, -2:] = True
    padding_bias = MultiHeadAttention.padding_bias(padding)
    causal_bias = _causal_bias(query_len, key_len, 0)
    return {"none": None, "padding": padding_bias, "causal": causal_bias,
            "both": padding_bias + causal_bias}


class TestAttentionWeights:
    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("bias_kind", ["none", "padding", "causal", "both"])
    def test_matches_composition(self, bias_kind, training):
        rng = np.random.default_rng(4)
        q_val, k_val = rng.normal(size=(3, 2, 5, 4)), rng.normal(size=(3, 2, 4, 5))
        v_val, upstream = rng.normal(size=(3, 2, 5, 4)), rng.normal(size=(3, 2, 5, 4))
        bias = _biases(3, 5, 5)[bias_kind]
        results = []
        for op in (fused_attention_weights, composed_attention_weights):
            q, k, v = (Tensor(val.copy(), requires_grad=True) for val in (q_val, k_val, v_val))
            weights = op(q.matmul(k), 0.5, bias, 0.3, training, np.random.default_rng(9))
            weights.matmul(v).backward(upstream)
            results.append((weights.data, q.grad, k.grad, v.grad))
        for fused, composed in zip(*results):
            assert np.abs(fused - composed).max() <= TOLERANCE
        if training:
            # The shared mask really dropped something, at the inverted-dropout scale.
            assert (results[0][0] == 0.0).any()
            assert results[0][0].sum(axis=-1).max() > 1.0 + 1e-6
        else:
            assert np.allclose(results[0][0].sum(axis=-1), 1.0, atol=1e-12)

    def test_attention_module_draws_the_masks_of_the_composition(self):
        """Train-mode ``MultiHeadAttention`` against the composed ``_attend``."""
        x_val = np.random.default_rng(5).normal(size=(2, 6, 8))
        padding = np.zeros((2, 6), dtype=bool)
        padding[1, 4:] = True

        def composed_attend(self, q, k, v, bias):
            weights = composed_attention_weights(
                q.matmul(k), 1.0 / np.sqrt(self.head_dim), bias,
                self.dropout.rate, self.dropout.training, self.dropout._rng,
            )
            return self.out_proj(self._merge_heads(weights.matmul(v)))

        results = []
        for attend in (MultiHeadAttention._attend, composed_attend):
            module = MultiHeadAttention(8, 2, dropout=0.2, rng=np.random.default_rng(6))
            module.train()
            x = Tensor(x_val.copy(), requires_grad=True)
            q = module._split_heads(module.query_proj(x))
            k = module._split_heads(module.key_proj(x)).transpose(0, 1, 3, 2)
            v = module._split_heads(module.value_proj(x))
            bias = module._build_bias(2, 6, 6, padding, causal=True)
            out = attend(module, q, k, v, bias)
            (out * out).sum().backward()
            results.append((out.data, x.grad, module.gradient_vector()))
        for fused, composed in zip(*results):
            assert np.abs(fused - composed).max() <= TOLERANCE

    @pytest.mark.parametrize("training", [False, True])
    def test_finite_difference_gradient(self, training):
        rng = np.random.default_rng(7)
        scores_val, mix = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))
        bias = np.where(rng.random((2, 1, 4)) < 0.25, -1e9, 0.0)

        def forward(scores):
            weights = fused_attention_weights(scores, 0.7, bias, 0.4, training, np.random.default_rng(8))
            return (weights * mix).sum()

        scores = Tensor(scores_val.copy(), requires_grad=True)
        forward(scores).backward()
        numeric = finite_difference(lambda v: forward(Tensor(v)).item(), scores_val.copy())
        assert relative_error(scores.grad, numeric) <= 1e-6


class TestDropout:
    def test_same_draw_as_the_three_pass_mask(self):
        x_val = np.random.default_rng(0).normal(size=(4, 6))
        x = Tensor(x_val.copy(), requires_grad=True)
        out = F.dropout(x, 0.3, training=True, rng=np.random.default_rng(12))
        out.backward(np.ones_like(x_val))
        keep = (np.random.default_rng(12).random(x_val.shape) >= 0.3) / (1.0 - 0.3)
        assert np.array_equal(out.data, x_val * keep)
        assert np.array_equal(x.grad, keep)

    def test_parameters_keep_their_gradient_through_dropout(self):
        weight = Parameter(np.ones((2, 3)))
        F.dropout(weight, 0.5, training=True, rng=np.random.default_rng(0)).sum().backward()
        assert set(np.unique(weight.grad)) <= {0.0, 2.0}
