"""The graph-free inference forward against the autograd forward it mirrors.

``TransformerEncoder.encode`` runs :mod:`repro.nn.inference` with or without
gradients (``test_chunked_graph_encode.py`` holds the recording call and its
backward to the padded forward).  The reference here is the padded
``Tensor``-module forward on the same module followed by a masked mean: two
implementations of one function, and these tests are what keeps them from
drifting.  The last test counts ``Tensor`` nodes and attention widths instead
of timing, so a return to the padded node-per-op route fails on any machine.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linking import CrossEncoder
from repro.nn import Tensor, TransformerEncoder, no_grad
from repro.nn import inference
from repro.utils.config import CrossEncoderConfig, EncoderConfig

CHUNK = inference._CHUNK_ROWS
VOCAB = 50


def make_encoder(dim=16, layers=1, heads=2, max_length=24, seed=0, dropout=0.1):
    """An eval-mode encoder whose parameters are all moved off their
    initial values, so attention is not uniform and no bias is zero."""
    encoder = TransformerEncoder(
        vocab_size=VOCAB, model_dim=dim, num_layers=layers, num_heads=heads,
        hidden_dim=2 * dim, max_length=max_length, dropout=dropout, seed=seed,
    )
    rng = np.random.default_rng(seed + 1)
    for parameter in encoder.parameters():
        parameter.data = parameter.data + 0.3 * rng.standard_normal(parameter.shape)
    return encoder.eval()


def make_ids(rng, lengths, width):
    ids = np.zeros((len(lengths), width), dtype=np.int64)
    for row, length in enumerate(lengths):
        ids[row, :length] = rng.integers(1, VOCAB, size=length)
    return ids


def fused(encoder, ids):
    with no_grad():
        return encoder.encode(ids).data


def reference(encoder, ids):
    """``forward()`` at the padded width, then the mean over real tokens."""
    hidden = encoder.forward(ids).data
    real = (ids != encoder.padding_idx).astype(np.float64)
    return np.einsum("rl,rld->rd", real / np.maximum(real.sum(axis=1, keepdims=True), 1.0), hidden)


# ----------------------------------------------------------------------
# Parity with the autograd forward
# ----------------------------------------------------------------------
@st.composite
def encoders_and_ids(draw):
    heads = draw(st.sampled_from([1, 2, 4]))
    dim = heads * draw(st.sampled_from([2, 4, 8]))
    layers = draw(st.integers(0, 3))
    width = draw(st.integers(1, 12))
    rows = draw(st.sampled_from([1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]))
    # Lengths from the edges {0, 1, width} and in between.
    lengths = draw(st.lists(
        st.one_of(st.sampled_from([0, 1, width]), st.integers(0, width)),
        min_size=rows, max_size=rows,
    ))
    seed = draw(st.integers(0, 2**16))
    encoder = make_encoder(dim=dim, layers=layers, heads=heads, max_length=width + 2, seed=seed)
    ids = make_ids(np.random.default_rng(seed), lengths, width)
    if draw(st.booleans()):
        # Interior padding: masked, but inside the row's extent.
        ids[:, width // 2] = 0
    return encoder, ids


@settings(max_examples=120, deadline=None)
@given(encoders_and_ids())
def test_fused_encode_equals_the_autograd_forward(case):
    encoder, ids = case
    expected = reference(encoder, ids)
    actual = fused(encoder, ids)
    assert actual.dtype == expected.dtype == encoder.token_embedding.weight.data.dtype
    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)


def test_lengths_straddling_a_chunk_boundary():
    """Sorted by length, the rows either side of every chunk boundary differ
    in length, and equal-length runs are split across chunks."""
    rng = np.random.default_rng(3)
    lengths = [20] * (CHUNK - 1) + [19, 19] + [7] * CHUNK + [6, 1, 0, 20]
    rng.shuffle(lengths)
    encoder = make_encoder(layers=2)
    ids = make_ids(rng, lengths, 22)
    np.testing.assert_allclose(fused(encoder, ids), reference(encoder, ids), rtol=0, atol=1e-12)


def test_all_padding_rows_pool_to_the_zero_vector():
    encoder = make_encoder()
    ids = make_ids(np.random.default_rng(0), [0, 5, 0], 8)
    pooled = fused(encoder, ids)
    assert not pooled[0].any() and not pooled[2].any()
    assert pooled[1].any()
    assert not fused(encoder, np.zeros((3, 8), dtype=np.int64)).any()


def test_one_dimensional_input_is_one_row():
    encoder = make_encoder()
    ids = make_ids(np.random.default_rng(0), [6], 9)
    assert fused(encoder, ids[0]).shape == (1, 16)
    assert np.array_equal(fused(encoder, ids[0]), fused(encoder, ids))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), others=st.sampled_from([0, 1, CHUNK - 1, CHUNK, 3 * CHUNK]))
def test_a_row_does_not_depend_on_its_batch(seed, others):
    """What ``perf``'s 1e-9 cross-batch checks rest on: the same row scored
    alone, or beside other rows of any length (so in another chunk, trimmed
    to another width), moves by at most 1e-12."""
    rng = np.random.default_rng(seed)
    encoder = make_encoder(layers=2, seed=seed)
    row = make_ids(rng, [int(rng.integers(1, 20))], 20)
    alone = fused(encoder, row)[0]
    for _ in range(2):
        batch = make_ids(rng, rng.integers(0, 21, size=others + 1).tolist(), 20)
        place = int(rng.integers(0, others + 1))
        batch[place] = row[0]
        np.testing.assert_allclose(fused(encoder, batch)[place], alone, rtol=0, atol=1e-12)


# ----------------------------------------------------------------------
# What must stay
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [-1, VOCAB])
def test_out_of_range_id_raises_index_error(bad):
    encoder = make_encoder()
    ids = make_ids(np.random.default_rng(0), [4, 4], 6)
    ids[1, 2] = bad
    with pytest.raises(IndexError, match="out of range"):
        fused(encoder, ids)


def test_over_long_row_raises_value_error():
    encoder = make_encoder(max_length=8)
    ids = make_ids(np.random.default_rng(0), [3], 9)   # 9 columns, 3 of them real
    with pytest.raises(ValueError, match="exceed max_length 8"):
        fused(encoder, ids)
    with pytest.raises(ValueError, match="exceed max_length 8"):
        reference(encoder, ids)


def test_training_mode_under_no_grad_still_applies_dropout():
    encoder = make_encoder(dropout=0.5)
    ids = make_ids(np.random.default_rng(0), [10, 12], 12)
    deterministic = fused(encoder, ids)
    encoder.train()
    try:
        dropped = [fused(encoder, ids) for _ in range(2)]
    finally:
        encoder.eval()
    assert not np.allclose(dropped[0], deterministic)
    assert not np.allclose(dropped[0], dropped[1])
    assert np.array_equal(fused(encoder, ids), deterministic)


def test_gradients_enabled_keeps_the_graph():
    encoder = make_encoder()
    ids = make_ids(np.random.default_rng(0), [5, 3], 6)
    pooled = encoder.encode(ids)
    assert pooled.requires_grad
    pooled.sum().backward()
    assert encoder.token_embedding.weight.grad is not None
    with no_grad():
        assert not encoder.encode(ids).requires_grad


def test_two_threads_on_one_encoder_get_their_single_threaded_results():
    """Thread replicas share one encoder: a buffer kept on the module or at
    module level would be written by both at once."""
    encoder = make_encoder(layers=2)
    rng = np.random.default_rng(8)
    inputs = [
        make_ids(rng, rng.integers(0, 23, size=rows).tolist(), 22)
        for rows in (3 * CHUNK + 1, 2 * CHUNK, CHUNK + 5, 7)
    ]
    expected = [fused(encoder, ids) for ids in inputs]
    failures = []

    def run(ids, want):
        try:
            for _ in range(40):
                if not np.array_equal(fused(encoder, ids), want):
                    failures.append("result differs from the single-threaded one")
                    return
        except BaseException as error:  # reported by the main thread
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=pair) for pair in zip(inputs, expected)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


# ----------------------------------------------------------------------
# A regression guard that counts instead of timing
# ----------------------------------------------------------------------
def test_rerank_builds_one_tensor_per_encode_and_never_attends_over_padding(
    tiny_corpus, tiny_tokenizer, monkeypatch
):
    """``score_candidate_batch`` for 16 mentions x 8 candidates, with
    ``Tensor.__init__`` and the operands of ``np.matmul`` observed (wrapped,
    not replaced).  The old route built 52 tensors per ``encode`` and every
    score array was ``max_length`` wide."""
    max_length, heads, dim = 48, 2, 16
    config = CrossEncoderConfig(encoder=EncoderConfig(
        model_dim=dim, num_layers=1, num_heads=heads, hidden_dim=32, max_length=max_length,
    ))
    model = CrossEncoder(config, tiny_tokenizer)
    mentions = tiny_corpus.mentions("lego")[:16]
    entities = tiny_corpus.entities("lego")
    candidates = [[entities[(start + step) % len(entities)] for step in range(8)] for start in range(16)]
    ids = np.concatenate(
        [model._cross_input_ids(m, c) for m, c in zip(mentions, candidates)], axis=0
    )
    lengths = np.sort((ids != tiny_tokenizer.pad_id).sum(axis=1))[::-1]
    assert lengths[-1] < lengths[0] <= max_length   # padding exists to be trimmed

    constructed = []
    tensor_init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(self)
        tensor_init(self, *args, **kwargs)

    per_encode = []
    encode = TransformerEncoder.encode

    def counting_encode(self, token_ids):
        before = len(constructed)
        result = encode(self, token_ids)
        per_encode.append(len(constructed) - before)
        return result

    score_shapes = []
    matmul = np.matmul

    def observing_matmul(a, b, *args, **kwargs):
        result = matmul(a, b, *args, **kwargs)
        if np.ndim(a) == 4 and a.shape[-1] == dim // heads:   # q @ k^T
            score_shapes.append(result.shape)
        return result

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    monkeypatch.setattr(TransformerEncoder, "encode", counting_encode)
    monkeypatch.setattr(np, "matmul", observing_matmul)
    scores = model.score_candidate_batch(mentions, candidates)
    monkeypatch.undo()

    assert [len(s) for s in scores] == [8] * 16
    assert per_encode == [1]   # one forward for the whole batch, one Tensor: the pooled matrix
    assert sum(shape[0] for shape in score_shapes) == len(ids)
    offset = 0
    for rows, num_heads, queries, keys in sorted(score_shapes, key=lambda s: -s[-1]):
        assert num_heads == heads
        assert rows <= CHUNK
        # Chunks hold the rows in decreasing length: the widest array covers
        # the longest rows, and none is wider than the longest row it holds.
        assert queries == keys == lengths[offset]
        offset += rows
    assert offset == len(ids)

