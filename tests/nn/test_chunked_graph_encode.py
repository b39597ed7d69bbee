"""The graph ``encode`` (training, or dropout active) against the padded forward.

With gradients enabled, ``TransformerEncoder.encode`` is one graph node: the
graph-free kernel's chunked forward (rows ordered by extent, chunks of
``_CHUNK_ROWS`` trimmed to their longest row) recording its activations, and
a written-out backward.  The oracle here is what ``encode`` was before it
chunked: ``forward()`` through the ``Tensor`` modules at the padded width,
followed by a masked mean, written out.  Trailing padding is masked out of
every attention map, so the two are one function up to the order of sums.
In train mode every dropout mask is drawn at the padded shape in
``forward()``'s order, so a seeded generator ends in the same state and a
seeded training run follows the same trajectory.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generation import build_exact_match_data
from repro.linking import (
    BiEncoder,
    BiEncoderTrainer,
    CrossEncoder,
    CrossEncoderTrainer,
    build_ranking_examples,
)
from repro.nn import Tensor, TransformerEncoder, inference
from repro.nn.tensor import is_grad_enabled
from repro.utils.config import BiEncoderConfig, CrossEncoderConfig, EncoderConfig

CHUNK = inference._CHUNK_ROWS
VOCAB = 40


def padded_encode(encoder, token_ids):
    """The oracle: every row at the padded width, then the masked mean."""
    hidden = encoder.forward(token_ids)
    keep = (token_ids != encoder.padding_idx).astype(np.float64)
    denom = np.maximum(keep.sum(axis=1, keepdims=True), 1.0)
    return (hidden * Tensor(keep[:, :, None] / denom[:, :, None])).sum(axis=1)


def make_encoder(layers, seed, max_length):
    encoder = TransformerEncoder(
        vocab_size=VOCAB, model_dim=8, num_layers=layers, num_heads=2, hidden_dim=16,
        max_length=max_length, dropout=0.2, seed=seed,
    )
    rng = np.random.default_rng(seed + 1)
    for parameter in encoder.parameters():
        parameter.data = parameter.data + 0.3 * rng.standard_normal(parameter.shape)
    return encoder


def run(encode, encoder, ids, upstream):
    """Pooled rows, every parameter gradient and the dropout generator state."""
    encoder.zero_grad()
    pooled = encode(encoder, ids)
    if pooled.requires_grad:  # all-padding input chunks to nothing: a constant zero
        pooled.backward(upstream)
    grads = [
        np.zeros_like(p.data) if p.grad is None else p.grad for p in encoder.parameters()
    ]
    return pooled.data, grads, encoder.dropout._rng.bit_generator.state


def assert_close(actual, expected, tolerance):
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    assert np.abs(actual - expected).max(initial=0.0) <= tolerance * scale


@st.composite
def cases(draw):
    layers = draw(st.integers(1, 2))
    width = draw(st.integers(1, 20))
    rows = draw(st.one_of(
        st.integers(1, 70), st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    ))
    # Lengths from the edges {0, 1, width} and in between: all-padding rows,
    # and equal-length runs that straddle a chunk boundary.
    lengths = draw(st.lists(
        st.one_of(st.sampled_from([0, 1, width]), st.integers(0, width)),
        min_size=rows, max_size=rows,
    ))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    ids = np.zeros((rows, width), dtype=np.int64)
    for row, length in enumerate(lengths):
        ids[row, :length] = rng.integers(1, VOCAB, size=length)
    if draw(st.booleans()):
        ids[:, width // 2] = 0  # interior padding: masked, inside the row's extent
    return layers, seed, ids, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(cases())
def test_chunked_encode_equals_the_padded_forward(case):
    layers, seed, ids, training = case
    upstream = np.random.default_rng(seed + 2).standard_normal((len(ids), 8))
    results = []
    for encode in (TransformerEncoder.encode, padded_encode):
        encoder = make_encoder(layers, seed, max_length=ids.shape[1] + 2).train(training)
        results.append(run(encode, encoder, ids, upstream))
    (pooled, grads, state), (want_pooled, want_grads, want_state) = results
    assert_close(pooled, want_pooled, 1e-12)
    for grad, want in zip(grads, want_grads):
        assert_close(grad, want, 1e-12)
    assert state == want_state


def test_no_attention_map_is_wider_than_its_chunks_longest_row(monkeypatch):
    rng = np.random.default_rng(4)
    lengths = [20] * (CHUNK - 1) + [19, 19] + [7] * CHUNK + [3, 0, 0]
    rng.shuffle(lengths)
    ids = np.zeros((len(lengths), 24), dtype=np.int64)
    for row, length in enumerate(lengths):
        ids[row, :length] = rng.integers(1, VOCAB, size=length)
    encoder = make_encoder(layers=2, seed=0, max_length=24).train()

    # The node records each chunk's attention map for its backward: observe
    # the buffers it files under "scores".
    maps = []
    kept = inference._Workspace.kept

    def observing(self, record, name, *shape, **scratch):
        if name == "scores" and record is not None:
            maps.append(shape)
        return kept(self, record, name, *shape, **scratch)

    monkeypatch.setattr(inference._Workspace, "kept", observing)
    encoder.encode(ids).sum().backward()
    monkeypatch.undo()

    # Chunks of the rows with a real token, longest first; two maps each.
    extents = sorted((length for length in lengths if length), reverse=True)
    expected = [
        (len(extents[start:start + CHUNK]), 2, extents[start], extents[start])
        for start in range(0, len(extents), CHUNK)
        for _ in range(2)
    ]
    assert maps == expected  # the padded forward: two maps of (36, 2, 24, 24)


# ----------------------------------------------------------------------
# Seeded training runs: same trajectory as the padded forward
# ----------------------------------------------------------------------
ENC = EncoderConfig(model_dim=16, num_layers=2, num_heads=2, hidden_dim=32, max_length=32)


def padded_encode_when_graph(encoder, token_ids):
    """``encode`` with the padded oracle wherever the chunked graph body runs."""
    token_ids = np.atleast_2d(np.asarray(token_ids, dtype=np.int64))
    if not (is_grad_enabled() or encoder.training):
        return Tensor(inference.pooled_encode(encoder, token_ids))
    return padded_encode(encoder, token_ids)


@pytest.fixture(scope="module")
def training_data(tiny_corpus):
    pairs = build_exact_match_data(tiny_corpus, "yugioh", per_entity=2)[:40]
    return pairs, tiny_corpus.entities("yugioh")


def trained_twice(monkeypatch, train):
    """``train()``'s final parameters with the chunked ``encode``, then the oracle."""
    chunked = train()
    monkeypatch.setattr(TransformerEncoder, "encode", padded_encode_when_graph)
    padded = train()
    monkeypatch.undo()
    return chunked, padded


def test_seeded_biencoder_run_matches_the_padded_forward(training_data, tiny_tokenizer, monkeypatch):
    pairs, _ = training_data
    config = BiEncoderConfig(encoder=ENC, epochs=2, batch_size=20, learning_rate=5e-3)

    def train():
        model = BiEncoder(config, tiny_tokenizer)
        BiEncoderTrainer(model, config).fit(pairs, epochs=2, seed=3)
        return model.flatten_parameters()

    chunked, padded = trained_twice(monkeypatch, train)
    assert_close(chunked, padded, 1e-9)


def test_seeded_crossencoder_run_matches_the_padded_forward(training_data, tiny_tokenizer, monkeypatch):
    pairs, entities = training_data
    config = CrossEncoderConfig(encoder=replace(ENC, max_length=48), epochs=1, batch_size=8,
                                num_candidates=4, learning_rate=5e-3)
    examples = build_ranking_examples(pairs[:24], entities, config.num_candidates, seed=0)

    def train():
        model = CrossEncoder(config, tiny_tokenizer)
        CrossEncoderTrainer(model, config).fit(examples, epochs=1, seed=3)
        return model.flatten_parameters()

    chunked, padded = trained_twice(monkeypatch, train)
    assert_close(chunked, padded, 1e-9)
