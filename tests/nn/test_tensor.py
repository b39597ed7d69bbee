"""Unit tests for the autodiff Tensor engine."""

import numpy as np
import pytest

from repro.nn import Tensor, concatenate, no_grad, stack_tensors, tensor, zeros


def numeric_gradient(func, value, eps=1e-6):
    """Central-difference gradient of a scalar function of one array."""
    grad = np.zeros_like(value, dtype=np.float64)
    flat = value.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = func(value)
        flat[i] = original - eps
        lower = func(value)
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2 * eps)
    return grad


class TestTensorBasics:
    def test_construction_casts_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype.kind == "f"
        assert t.shape == (3,)

    def test_requires_grad_flag(self):
        t = Tensor([1.0], requires_grad=True)
        assert t.requires_grad
        assert Tensor([1.0]).requires_grad is False

    def test_item_and_len(self):
        assert Tensor([3.5]).item() == pytest.approx(3.5)
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_detach_shares_data_but_no_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()


class TestArithmeticGradients:
    def test_add_broadcast_gradient(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(4,)), requires_grad=True)
        out = (a + b).sum()
        out.backward()
        assert np.allclose(a.grad, np.ones((3, 4)))
        assert np.allclose(b.grad, np.full((4,), 3.0))

    def test_mul_gradient(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [4.0, 5.0])
        assert np.allclose(b.grad, [2.0, 3.0])

    def test_div_gradient_matches_numeric(self):
        rng = np.random.default_rng(2)
        a_val = rng.uniform(1.0, 2.0, size=(3, 3))
        b_val = rng.uniform(1.0, 2.0, size=(3, 3))
        a = Tensor(a_val.copy(), requires_grad=True)
        b = Tensor(b_val.copy(), requires_grad=True)
        (a / b).sum().backward()
        num_a = numeric_gradient(lambda v: float((v / b_val).sum()), a_val.copy())
        num_b = numeric_gradient(lambda v: float((a_val / v).sum()), b_val.copy())
        assert np.allclose(a.grad, num_a, atol=1e-5)
        assert np.allclose(b.grad, num_b, atol=1e-5)

    def test_pow_gradient(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        (a ** 3).sum().backward()
        assert np.allclose(a.grad, 3 * np.array([2.0, 3.0]) ** 2)

    def test_rsub_and_rdiv(self):
        a = Tensor([2.0], requires_grad=True)
        (10.0 - a).backward()
        assert np.allclose(a.grad, [-1.0])
        b = Tensor([2.0], requires_grad=True)
        (10.0 / b).backward()
        assert np.allclose(b.grad, [-10.0 / 4.0])

    def test_matmul_gradient_matches_numeric(self):
        rng = np.random.default_rng(3)
        a_val = rng.normal(size=(3, 4))
        b_val = rng.normal(size=(4, 2))
        a = Tensor(a_val.copy(), requires_grad=True)
        b = Tensor(b_val.copy(), requires_grad=True)
        (a @ b).sum().backward()
        num_a = numeric_gradient(lambda v: float((v @ b_val).sum()), a_val.copy())
        num_b = numeric_gradient(lambda v: float((a_val @ v).sum()), b_val.copy())
        assert np.allclose(a.grad, num_a, atol=1e-5)
        assert np.allclose(b.grad, num_b, atol=1e-5)

    def test_batched_matmul_gradient_shapes(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (4, 5)

    def test_gradient_accumulates_across_uses(self):
        a = Tensor([1.0], requires_grad=True)
        out = a * 2 + a * 3
        out.backward()
        assert np.allclose(a.grad, [5.0])

    def test_second_backward_through_a_retained_graph(self, graph_nodes):
        rng = np.random.default_rng(5)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        hidden = (a @ b).tanh()
        doubled = hidden + hidden
        loss = (doubled * doubled).sum()
        loss.backward()
        once_a, once_b = a.grad.copy(), b.grad.copy()
        loss.backward()
        assert np.allclose(a.grad, 2 * once_a, rtol=1e-14, atol=0)
        assert np.allclose(b.grad, 2 * once_b, rtol=1e-14, atol=0)
        holders = [node for node in graph_nodes(loss) if node.grad is not None]
        assert {id(node) for node in holders} == {id(a), id(b)}


class TestElementwiseGradients:
    @pytest.mark.parametrize(
        "method, reference",
        [
            ("exp", np.exp),
            ("log", np.log),
            ("tanh", np.tanh),
        ],
    )
    def test_unary_matches_numeric(self, method, reference):
        rng = np.random.default_rng(5)
        value = rng.uniform(0.2, 1.5, size=(4, 3))
        t = Tensor(value.copy(), requires_grad=True)
        getattr(t, method)().sum().backward()
        numeric = numeric_gradient(lambda v: float(reference(v).sum()), value.copy())
        assert np.allclose(t.grad, numeric, atol=1e-4)


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        t.sum(axis=1, keepdims=True).sum().backward()
        assert np.allclose(t.grad, np.ones((2, 3)))

    def test_mean_gradient(self):
        t = Tensor(np.ones((2, 5)), requires_grad=True)
        t.mean().backward()
        assert np.allclose(t.grad, np.full((2, 5), 0.1))

    def test_max_axis_gradient(self):
        t = Tensor(np.array([[1.0, 3.0], [5.0, 2.0]]), requires_grad=True)
        t.max(axis=1).sum().backward()
        assert np.allclose(t.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_reshape_roundtrips_gradient(self):
        t = Tensor(np.arange(6.0), requires_grad=True)
        (t.reshape(2, 3) * 2).sum().backward()
        assert np.allclose(t.grad, np.full(6, 2.0))

    def test_transpose_gradient(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        t.transpose().sum().backward()
        assert t.grad.shape == (2, 3)

    def test_getitem_gradient_scatters(self):
        t = Tensor(np.arange(5.0), requires_grad=True)
        t[np.array([0, 0, 2])].sum().backward()
        assert np.allclose(t.grad, [2.0, 0.0, 1.0, 0.0, 0.0])

    def test_concatenate_gradient_splits(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        concatenate([a, b], axis=0).sum().backward()
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (3, 2)

    def test_stack_gradient(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        stack_tensors([a, b], axis=0).sum().backward()
        assert np.allclose(a.grad, np.ones(3))
        assert np.allclose(b.grad, np.ones(3))


class TestGradMode:
    def test_no_grad_disables_graph(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2
        assert not out.requires_grad

    def test_no_grad_restores_state(self):
        with no_grad():
            pass
        t = Tensor([1.0], requires_grad=True)
        assert (t * 2).requires_grad

    def test_zeros_helper(self):
        z = zeros((2, 2), requires_grad=True)
        assert z.shape == (2, 2)
        assert z.requires_grad

    def test_tensor_helper(self):
        assert tensor([1.0, 2.0]).shape == (2,)
