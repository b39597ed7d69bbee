"""Unit tests for metrics, reporting and the experiment suite plumbing."""

import pytest

from repro.eval import (
    LinkingMetrics,
    accuracy_from_predictions,
    compute_metrics,
    evaluate_name_matching,
    format_table,
    macro_average,
    markdown_table,
)
from repro.serving import LinkingResult


def prediction(gold, candidates, predicted):
    return LinkingResult(
        mention_id="m",
        surface="",
        gold_entity_id=gold,
        candidate_ids=candidates,
        retrieval_scores=[0.0] * len(candidates),
        predicted_entity_id=predicted,
    )


class TestMetrics:
    def test_perfect_predictions(self):
        predictions = [prediction("e1", ["e1", "e2"], "e1") for _ in range(4)]
        metrics = compute_metrics(predictions)
        assert metrics.recall == 100.0
        assert metrics.normalized_accuracy == 100.0
        assert metrics.unnormalized_accuracy == 100.0

    def test_unnormalized_is_product_of_recall_and_normalized(self):
        predictions = [
            prediction("e1", ["e1", "e2"], "e1"),   # retrieved + correct
            prediction("e1", ["e1", "e2"], "e2"),   # retrieved + wrong
            prediction("e1", ["e3", "e2"], "e3"),   # not retrieved
            prediction("e1", ["e1", "e2"], "e1"),   # retrieved + correct
        ]
        metrics = compute_metrics(predictions)
        assert metrics.recall == pytest.approx(75.0)
        assert metrics.normalized_accuracy == pytest.approx(100.0 * 2 / 3)
        assert metrics.unnormalized_accuracy == pytest.approx(50.0)
        assert metrics.unnormalized_accuracy == pytest.approx(
            metrics.recall * metrics.normalized_accuracy / 100.0
        )

    def test_empty_predictions(self):
        metrics = compute_metrics([])
        assert metrics.num_examples == 0
        assert metrics.unnormalized_accuracy == 0.0

    def test_unlabelled_predictions_ignored(self):
        predictions = [prediction(None, ["e1"], "e1"), prediction("e1", ["e1"], "e1")]
        assert compute_metrics(predictions).num_examples == 1

    def test_rounding(self):
        metrics = LinkingMetrics(33.3333, 66.6666, 22.2222, 3)
        rounded = metrics.rounded(1)
        assert rounded.recall == 33.3
        assert rounded.num_examples == 3

    def test_accuracy_from_predictions(self):
        assert accuracy_from_predictions(["a", "b"], ["a", "c"]) == 50.0
        with pytest.raises(ValueError):
            accuracy_from_predictions(["a"], ["a", "b"])

    def test_macro_average(self):
        first = LinkingMetrics(50.0, 50.0, 25.0, 10)
        second = LinkingMetrics(100.0, 100.0, 100.0, 10)
        average = macro_average([first, second])
        assert average.recall == 75.0
        assert average.num_examples == 20
        assert macro_average([]).num_examples == 0


class TestNameMatchingEvaluation:
    def test_returns_unnormalized_only(self, tiny_corpus):
        domain = "lego"
        mentions = tiny_corpus.mentions(domain)[:30]
        metrics = evaluate_name_matching(tiny_corpus.entities(domain), mentions)
        assert metrics.recall == 0.0
        assert 0.0 <= metrics.unnormalized_accuracy <= 100.0
        assert metrics.num_examples == 30

    def test_empty_mentions(self, tiny_corpus):
        metrics = evaluate_name_matching(tiny_corpus.entities("lego"), [])
        assert metrics.num_examples == 0


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"method": "blink", "score": 12.345}, {"method": "meta", "score": 3.0}]
        text = format_table(rows, title="Demo")
        assert "Demo" in text
        assert "12.35" in text
        assert text.count("\n") >= 3

    def test_format_table_empty(self):
        assert "(empty)" in format_table([], title="Nothing")

    def test_markdown_table(self):
        rows = [{"a": 1, "b": 2.5}]
        text = markdown_table(rows)
        assert text.startswith("| a | b |")
        assert "| 1 | 2.50 |" in text
        assert markdown_table([]) == "(empty)"
