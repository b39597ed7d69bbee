"""The gradient ownership rule, enforced instead of described.

``Tensor._accumulate`` keeps the array it is handed, so one array may be the
``.grad`` of several nodes (or a view of another node's).  That is safe only
under the rule in its docstring: a backward closure never writes into an array
it received as ``grad`` or has already handed to ``_accumulate``.  Here every
array that passes through ``_accumulate`` is frozen, so a closure that breaks
the rule raises ``ValueError: assignment destination is read-only`` — and the
gradients computed under the freeze must equal the ordinary ones bit for bit.
"""

import numpy as np
import pytest

from repro.generation import Seq2SeqModel, build_exact_match_data
from repro.linking import BiEncoder, CrossEncoder
from repro.linking.biencoder import encode_pair_batch
from repro.linking.crossencoder import build_ranking_examples
from repro.nn import Adam, Tensor, concatenate, stack_tensors
from repro.nn import functional as F
from repro.training import BiEncoderMetaTask, TrainingEngine
from repro.training import engine as engine_module
from repro.utils.config import BiEncoderConfig, CrossEncoderConfig, EncoderConfig, RewriterConfig

ENC = EncoderConfig(model_dim=16, num_layers=1, num_heads=2, hidden_dim=32, max_length=32)


@pytest.fixture
def frozen_gradients(monkeypatch):
    """Freeze every array ``_accumulate`` is handed and every array it stores."""
    original = Tensor._accumulate

    def accumulate(self, grad):
        if isinstance(grad, np.ndarray):
            grad.setflags(write=False)
        original(self, grad)
        self.grad.setflags(write=False)

    monkeypatch.setattr(Tensor, "_accumulate", accumulate)


def test_the_freeze_catches_a_closure_that_writes_into_its_gradient(frozen_gradients):
    x = Tensor(np.ones(3), requires_grad=True)

    def rogue_backward(grad):
        grad *= 2.0
        x._accumulate(grad)

    doubled = Tensor(x.data * 2.0, requires_grad=True, _parents=(x,), _backward=rogue_backward)
    with pytest.raises(ValueError, match="read-only"):
        doubled.sum().backward()


# ----------------------------------------------------------------------
# The training losses, in train mode (dropout masks drawn)
# ----------------------------------------------------------------------
def _biencoder_loss(corpus, tokenizer):
    model = BiEncoder(BiEncoderConfig(encoder=ENC), tokenizer)
    batch = encode_pair_batch(build_exact_match_data(corpus, "yugioh", per_entity=1)[:6],
                              tokenizer, ENC.max_length)
    weights = np.linspace(0.0, 1.0, 6)
    return model, lambda: model.batch_loss(batch.mention_ids, batch.entity_ids, sample_weights=weights)


def _crossencoder_loss(corpus, tokenizer):
    model = CrossEncoder(CrossEncoderConfig(encoder=ENC, num_candidates=3), tokenizer)
    pairs = build_exact_match_data(corpus, "yugioh", per_entity=1)[:5]
    examples = build_ranking_examples(pairs, corpus.entities("yugioh"), 3, seed=0)
    # A shorter candidate list exercises the regroup / concatenate / reorder path.
    examples[1].candidates = examples[1].candidates[:2]
    examples[1].gold_index = min(examples[1].gold_index, 1)
    run = model.prepare_examples_loss(examples)
    weights = np.array([0.5, 0.0, 0.2, 0.3, 0.0])
    return model, lambda: run(reduction="sum", sample_weights=weights)


def _rewriter_loss(corpus, tokenizer):
    config = RewriterConfig(vocab_size=40, model_dim=16, num_layers=1, num_heads=2, hidden_dim=32,
                            max_source_length=6, max_target_length=3)
    model = Seq2SeqModel(config, pad_id=0, bos_id=1, eos_id=2)
    rng = np.random.default_rng(0)
    sources = rng.integers(3, 40, size=(5, 6))
    sources[2, 4:] = 0
    targets = np.concatenate([np.full((5, 1), 1), rng.integers(3, 40, size=(5, 2)),
                              np.full((5, 1), 2)], axis=1)
    targets[3, 2:] = 0
    return model, lambda: model.batch_loss(sources, targets)


def _train_mode_gradient(build, corpus, tokenizer):
    model, loss = build(corpus, tokenizer)
    model.train()
    model.zero_grad()
    loss().backward()
    return model.gradient_vector()


@pytest.mark.parametrize("build", [_biencoder_loss, _crossencoder_loss, _rewriter_loss])
def test_training_losses_never_write_into_a_gradient_they_do_not_own(
    build, tiny_corpus, tiny_tokenizer, request
):
    # Each run builds its model afresh, so both draw the same dropout masks.
    expected = _train_mode_gradient(build, tiny_corpus, tiny_tokenizer)
    request.getfixturevalue("frozen_gradients")
    frozen = _train_mode_gradient(build, tiny_corpus, tiny_tokenizer)
    assert np.abs(expected).max() > 0
    assert np.array_equal(frozen, expected)


# ----------------------------------------------------------------------
# Outside the closures: a parameter's ``.grad`` is rebound, never mutated
# ----------------------------------------------------------------------
def _freeze_parameter_gradients(parameters):
    for parameter in parameters:
        if parameter.grad is not None:
            parameter.grad.setflags(write=False)


def _fit_one_epoch(corpus, tokenizer):
    model = BiEncoder(BiEncoderConfig(encoder=ENC), tokenizer)
    # A clipping norm this small makes every step take the rescaling branch.
    engine = TrainingEngine(model, BiEncoderMetaTask(model), learning_rate=5e-3, batch_size=4,
                            epochs=1, max_grad_norm=1e-3)
    engine.fit(build_exact_match_data(corpus, "yugioh", per_entity=1)[:8], seed=0)
    return model.flatten_parameters()


def test_an_engine_step_never_writes_into_a_parameter_gradient(
    tiny_corpus, tiny_tokenizer, request, monkeypatch
):
    expected = _fit_one_epoch(tiny_corpus, tiny_tokenizer)
    request.getfixturevalue("frozen_gradients")
    # ``_apply_update`` binds slices of the averaged gradient and clipping
    # rebinds scaled ones, neither through ``_accumulate``: freeze what the
    # clipping and the optimiser step are about to read as well.
    clip, step = engine_module.clip_grad_norm, Adam.step

    def frozen_clip(parameters, max_norm):
        parameters = list(parameters)
        _freeze_parameter_gradients(parameters)
        return clip(parameters, max_norm)

    def frozen_step(self):
        _freeze_parameter_gradients(self.parameters)
        step(self)

    monkeypatch.setattr(engine_module, "clip_grad_norm", frozen_clip)
    monkeypatch.setattr(Adam, "step", frozen_step)
    assert np.array_equal(_fit_one_epoch(tiny_corpus, tiny_tokenizer), expected)


def test_backward_copies_the_gradient_its_caller_supplies():
    x = Tensor(np.ones(3), requires_grad=True)
    seed = np.array([1.0, 2.0, 3.0])
    x.backward(seed)
    seed[:] = 0.0
    assert np.array_equal(x.grad, [1.0, 2.0, 3.0])


# ----------------------------------------------------------------------
# The cases where one array reaches several nodes
# ----------------------------------------------------------------------
def _weighted_cross_entropy(x):
    return F.cross_entropy(x, [2, 0, 1], reduction="sum", sample_weights=np.array([0.2, 0.0, 0.8]))


SHARED_ARRAY_CASES = {
    # Backwards that hand out views of the incoming gradient.
    "concatenate": lambda x: (concatenate([x, x * 2.0], axis=1) ** 2).sum(),
    "stack_tensors": lambda x: (stack_tensors([x, x * 3.0], axis=0) ** 2).sum(),
    "getitem": lambda x: (x[[2, 0]] * x[1:]).sum() + (x[0] ** 2).sum(),
    "reshape": lambda x: ((x.reshape(4, 3) ** 2) + x.reshape(4, 3)).sum(),
    "transpose": lambda x: (x.transpose(1, 0) * x.T).sum() + (x.T ** 3).sum(),
    # One array sent to the same parent twice.
    "x_plus_x": lambda x: ((x + x) ** 2).sum(),
    "x_times_x": lambda x: ((x * x) + x).sum(),
    # Broadcast views (``sum`` hands out a read-only expansion of its gradient).
    "sum_then_reuse": lambda x: (x.sum(axis=1, keepdims=True) * x).sum() + x.mean(),
    "cross_entropy_with_weights": lambda x: _weighted_cross_entropy(x.reshape(4, 3)[:3]),
    "linear_shared_weight": lambda x: (F.linear(x, x, x[:, 0]) + F.linear(x * 2.0, x)).sum(),
    "attention_weights": lambda x: (
        F.attention_weights(x @ x.T, 0.5, np.array([[0.0, -1e9, 0.0]]),
                            F.keep_scale((3, 3), 0.25, np.random.default_rng(3))) @ x
    ).sum(),
    "gelu_standardize_softmax": lambda x: (x.gelu() + x.standardize() * x.softmax()).sum(),
}


@pytest.mark.parametrize("case", sorted(SHARED_ARRAY_CASES))
def test_shared_gradient_arrays_are_never_written(case, request):
    value = np.random.default_rng(11).normal(size=(3, 4))

    def gradient():
        x = Tensor(value.copy(), requires_grad=True)
        SHARED_ARRAY_CASES[case](x).backward()
        return x.grad

    expected = gradient()
    request.getfixturevalue("frozen_gradients")
    assert np.array_equal(gradient(), expected)
