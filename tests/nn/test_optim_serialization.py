"""Unit tests for the optimiser, gradient clipping and checkpointing."""

import numpy as np
import pytest

from repro.nn import Adam, Linear, Module, clip_grad_norm, load_checkpoint, save_checkpoint


def quadratic_loss(parameter):
    return ((parameter - 3.0) * (parameter - 3.0)).sum()


class TestAdam:
    def test_converges_on_quadratic(self):
        layer = Linear(1, 1, bias=False, rng=np.random.default_rng(2))
        optimizer = Adam([layer.weight], lr=0.2)
        for _ in range(150):
            loss = quadratic_loss(layer.weight)
            layer.zero_grad()
            loss.backward()
            optimizer.step()
        assert np.allclose(layer.weight.data, 3.0, atol=1e-2)

    def test_skips_parameters_without_grad(self):
        layer = Linear(2, 2, rng=np.random.default_rng(3))
        optimizer = Adam(layer.parameters(), lr=0.1)
        before = layer.weight.data.copy()
        optimizer.step()
        assert np.allclose(layer.weight.data, before)

    def test_step_count_bias_correction(self):
        layer = Linear(1, 1, bias=False, rng=np.random.default_rng(4))
        optimizer = Adam([layer.weight], lr=0.1)
        layer.weight.grad = np.ones_like(layer.weight.data)
        optimizer.step()
        # After one step with unit gradient, update magnitude ~= lr.
        assert abs(float(layer.weight.grad.reshape(()))) == 1.0
        assert optimizer._step_count == 1

    def test_empty_parameter_list_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_invalid_lr_raises(self):
        layer = Linear(1, 1)
        with pytest.raises(ValueError):
            Adam(layer.parameters(), lr=0.0)


class TestGradClippingAndSchedule:
    def test_clip_grad_norm_scales_down(self):
        layer = Linear(3, 3, bias=False, rng=np.random.default_rng(5))
        layer.weight.grad = np.full(layer.weight.shape, 10.0)
        norm = clip_grad_norm([layer.weight], max_norm=1.0)
        assert norm > 1.0
        assert np.linalg.norm(layer.weight.grad) == pytest.approx(1.0, rel=1e-6)

    def test_clip_grad_norm_noop_below_threshold(self):
        layer = Linear(2, 2, bias=False, rng=np.random.default_rng(6))
        layer.weight.grad = np.full(layer.weight.shape, 0.01)
        before = layer.weight.grad.copy()
        clip_grad_norm([layer.weight], max_norm=10.0)
        assert np.allclose(layer.weight.grad, before)

    def test_clip_handles_missing_grads(self):
        layer = Linear(2, 2)
        assert clip_grad_norm(layer.parameters(), 1.0) == 0.0


class CheckpointModel(Module):
    def __init__(self, seed=0):
        super().__init__()
        self.layer = Linear(4, 4, rng=np.random.default_rng(seed))

    def forward(self, x):
        return self.layer(x)


class TestSerialization:
    def test_save_and_load_roundtrip(self, tmp_path):
        model = CheckpointModel(seed=1)
        path = save_checkpoint(model, tmp_path / "model", metadata={"epoch": 3})
        restored = CheckpointModel(seed=2)
        metadata = load_checkpoint(restored, path)
        assert metadata == {"epoch": 3}
        assert np.allclose(model.layer.weight.data, restored.layer.weight.data)

    def test_save_appends_npz_suffix(self, tmp_path):
        model = CheckpointModel()
        path = save_checkpoint(model, tmp_path / "checkpoint")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_load_accepts_path_without_suffix(self, tmp_path):
        model = CheckpointModel()
        save_checkpoint(model, tmp_path / "weights")
        other = CheckpointModel(seed=9)
        load_checkpoint(other, tmp_path / "weights")
        assert np.allclose(model.layer.weight.data, other.layer.weight.data)

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(CheckpointModel(), tmp_path / "missing.npz")
