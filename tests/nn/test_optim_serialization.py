"""Unit tests for optimisers, LR schedules and checkpointing."""

import numpy as np
import pytest

from repro.nn import (
    SGD,
    Adam,
    Linear,
    Module,
    Tensor,
    clip_grad_norm,
    functional as F,
    load_checkpoint,
    load_training_checkpoint,
    save_checkpoint,
    save_training_checkpoint,
)


def quadratic_loss(parameter):
    return ((parameter - 3.0) * (parameter - 3.0)).sum()


class TestSGD:
    def test_converges_on_quadratic(self):
        param = Linear(1, 1, bias=False, rng=np.random.default_rng(0)).weight
        optimizer = SGD([param], lr=0.1)
        for _ in range(100):
            loss = quadratic_loss(param)
            param.zero_grad()
            loss.backward()
            optimizer.step()
        assert np.allclose(param.data, 3.0, atol=1e-3)

    def test_momentum_accelerates(self):
        def run(momentum):
            layer = Linear(1, 1, bias=False, rng=np.random.default_rng(0))
            optimizer = SGD([layer.weight], lr=0.02, momentum=momentum)
            for _ in range(30):
                loss = quadratic_loss(layer.weight)
                layer.zero_grad()
                loss.backward()
                optimizer.step()
            return abs(float(layer.weight.data.reshape(())) - 3.0)

        assert run(0.9) < run(0.0)

    def test_weight_decay_shrinks_parameters(self):
        layer = Linear(4, 4, bias=False, rng=np.random.default_rng(1))
        optimizer = SGD([layer.weight], lr=0.1, weight_decay=0.5)
        before = np.abs(layer.weight.data).sum()
        # gradient of zero loss -> only weight decay acts
        layer.weight.grad = np.zeros_like(layer.weight.data)
        optimizer.step()
        assert np.abs(layer.weight.data).sum() < before

    def test_empty_parameter_list_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_invalid_lr_raises(self):
        layer = Linear(1, 1)
        with pytest.raises(ValueError):
            SGD(layer.parameters(), lr=0.0)


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


def run_steps(model, optimizer, steps, start=0):
    for index in range(start, start + steps):
        x = Tensor(np.full((2, 4), 0.1 * (index + 1)))
        loss = (model(x) * model(x)).sum()
        model.zero_grad()
        loss.backward()
        optimizer.step()


class TestOptimizerStateDicts:
    def test_adam_state_roundtrip_is_bit_identical(self):
        model_a, model_b = CheckpointModel(seed=1), CheckpointModel(seed=1)
        opt_a = Adam(model_a.parameters(), lr=0.05)
        opt_b = Adam(model_b.parameters(), lr=0.05)
        run_steps(model_a, opt_a, 3)
        model_b.load_state_dict(model_a.state_dict())
        opt_b.load_state_dict(opt_a.state_dict())
        run_steps(model_a, opt_a, 2, start=3)
        run_steps(model_b, opt_b, 2, start=3)
        assert np.array_equal(model_a.flatten_parameters(), model_b.flatten_parameters())

    def test_sgd_state_roundtrip(self):
        model = CheckpointModel(seed=2)
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
        run_steps(model, optimizer, 2)
        state = optimizer.state_dict()
        fresh = SGD(model.parameters(), lr=0.1, momentum=0.9)
        fresh.load_state_dict(state)
        assert all(
            np.array_equal(a, b) for a, b in zip(fresh._velocity, optimizer._velocity)
        )

    def test_buffer_shape_mismatch_rejected(self):
        model = CheckpointModel(seed=3)
        optimizer = Adam(model.parameters(), lr=0.1)
        state = optimizer.state_dict()
        state["m"][0] = np.zeros(7)
        with pytest.raises(ValueError):
            Adam(model.parameters(), lr=0.1).load_state_dict(state)


class TestTrainingCheckpoint:
    def test_roundtrip_restores_optimizer_and_metadata(self, tmp_path):
        model = CheckpointModel(seed=4)
        optimizer = Adam(model.parameters(), lr=0.05)
        run_steps(model, optimizer, 3)
        path = save_training_checkpoint(
            model, tmp_path / "train", optimizer=optimizer, metadata={"epoch": 3}
        )
        restored_model = CheckpointModel(seed=5)
        restored_optimizer = Adam(restored_model.parameters(), lr=0.9)
        metadata = load_training_checkpoint(restored_model, path, optimizer=restored_optimizer)
        assert metadata == {"epoch": 3}
        assert restored_optimizer.lr == optimizer.lr
        assert restored_optimizer._step_count == optimizer._step_count
        assert all(np.array_equal(a, b) for a, b in zip(restored_optimizer._m, optimizer._m))
        assert np.array_equal(model.flatten_parameters(), restored_model.flatten_parameters())

    def test_missing_optimizer_state_raises(self, tmp_path):
        model = CheckpointModel(seed=6)
        path = save_training_checkpoint(model, tmp_path / "weights-only")
        with pytest.raises(ValueError, match="no optimizer state"):
            load_training_checkpoint(
                CheckpointModel(seed=6), path, optimizer=Adam(model.parameters(), lr=0.1)
            )

    def test_optimizer_section_hidden_from_metadata(self, tmp_path):
        model = CheckpointModel(seed=7)
        optimizer = Adam(model.parameters(), lr=0.1)
        path = save_training_checkpoint(model, tmp_path / "train", optimizer=optimizer)
        metadata = load_training_checkpoint(CheckpointModel(seed=7), path)
        assert "__optimizer__" not in metadata
