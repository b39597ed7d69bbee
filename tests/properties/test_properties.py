"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import OverlapCategory, categorize
from repro.eval.metrics import compute_metrics
from repro.meta import normalize_weights
from repro.nn import Tensor
from repro.nn import functional as F
from repro.serving import LinkingResult
from repro.text import Vocabulary, normalize_text, rouge_1, simple_tokenize

words = st.text(alphabet="abcdefghij ", min_size=0, max_size=30)
small_floats = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


class TestTextProperties:
    @given(words)
    @settings(max_examples=50, deadline=None)
    def test_normalize_is_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once

    @given(words)
    @settings(max_examples=50, deadline=None)
    def test_tokenize_produces_normalized_tokens(self, text):
        for token in simple_tokenize(text):
            assert token == normalize_text(token)

    @given(words, words)
    @settings(max_examples=50, deadline=None)
    def test_rouge_f1_bounded_and_symmetric_on_identical(self, left, right):
        score = rouge_1(left, right)
        assert 0.0 <= score.f1 <= 1.0
        if simple_tokenize(left):
            assert rouge_1(left, left).f1 == 1.0

    @given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=8), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_vocabulary_roundtrip(self, tokens):
        vocabulary = Vocabulary(tokens)
        for token in tokens:
            assert vocabulary.id_to_token(vocabulary.token_to_id(token)) == token

    @given(words, words)
    @settings(max_examples=50, deadline=None)
    def test_categorize_always_returns_a_category(self, surface, title):
        assert categorize(surface, title) in set(OverlapCategory)


class TestWeightProperties:
    @given(st.lists(small_floats, min_size=1, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_normalized_weights_are_a_distribution_or_zero(self, raw):
        weights = normalize_weights(np.array(raw))
        assert np.all(weights >= 0.0)
        total = weights.sum()
        assert np.isclose(total, 1.0) or total == 0.0

    @given(st.lists(small_floats, min_size=2, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_normalized_weights_preserve_order(self, raw):
        array = np.array(raw)
        weights = normalize_weights(array)
        positive = array > 0
        if positive.sum() >= 2:
            indices = np.where(positive)[0]
            ordered = sorted(indices, key=lambda i: array[i])
            for earlier, later in zip(ordered, ordered[1:]):
                assert weights[earlier] <= weights[later] + 1e-12


class TestNnProperties:
    @given(st.lists(st.lists(small_floats, min_size=3, max_size=3), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_softmax_rows_sum_to_one(self, rows):
        logits = Tensor(np.array(rows))
        out = F.softmax(logits, axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0)
        assert np.all(out.data >= 0.0)

    @given(st.lists(small_floats, min_size=2, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_cross_entropy_nonnegative(self, logits):
        tensor = Tensor(np.array(logits)[None, :])
        loss = F.cross_entropy(tensor, [0])
        assert loss.item() >= -1e-9

    @given(st.lists(small_floats, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_sum_gradient_is_ones(self, values):
        tensor = Tensor(np.array(values), requires_grad=True)
        tensor.sum().backward()
        assert np.allclose(tensor.grad, 1.0)


class TestMetricProperties:
    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_unnormalized_accuracy_identity(self, outcomes):
        predictions = []
        for retrieved, correct in outcomes:
            candidates = ["gold"] if retrieved else ["other"]
            predicted = "gold" if (correct and retrieved) else "wrong"
            predictions.append(
                LinkingResult(
                    mention_id="m",
                    surface="",
                    gold_entity_id="gold",
                    candidate_ids=candidates,
                    retrieval_scores=[0.0],
                    predicted_entity_id=predicted,
                )
            )
        metrics = compute_metrics(predictions)
        assert 0.0 <= metrics.recall <= 100.0
        assert 0.0 <= metrics.unnormalized_accuracy <= metrics.recall + 1e-9
        expected = metrics.recall * metrics.normalized_accuracy / 100.0
        assert np.isclose(metrics.unnormalized_accuracy, expected)
