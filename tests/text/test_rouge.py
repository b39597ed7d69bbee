"""Unit tests for the ROUGE implementation (Table XI metric)."""

import pytest

from repro.text import (
    best_match_rouge_1_f1,
    corpus_rouge_1_f1,
    rouge_1,
    rouge_n,
)


class TestRouge1:
    def test_identical_strings_score_one(self):
        score = rouge_1("the golden master", "the golden master")
        assert score.precision == score.recall == score.f1 == pytest.approx(1.0)

    def test_disjoint_strings_score_zero(self):
        score = rouge_1("alpha beta", "gamma delta")
        assert score.f1 == 0.0

    def test_partial_overlap(self):
        score = rouge_1("the fourth episode", "the golden episode")
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == pytest.approx(2 / 3)

    def test_case_and_punctuation_insensitive(self):
        assert rouge_1("Golden-Master!", "golden master").f1 == pytest.approx(1.0)

    def test_empty_candidate(self):
        assert rouge_1("", "reference words").f1 == 0.0

    def test_repeated_tokens_clipped(self):
        score = rouge_1("the the the", "the cat")
        assert score.precision == pytest.approx(1 / 3)
        assert score.recall == pytest.approx(1 / 2)


class TestRouge2AndL:
    def test_invalid_order(self):
        with pytest.raises(ValueError):
            rouge_n("a", "a", order=0)


class TestCorpusRouge:
    def test_corpus_average(self):
        score = corpus_rouge_1_f1(["a b", "c d"], ["a b", "x y"])
        assert score == pytest.approx(50.0)

    def test_corpus_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            corpus_rouge_1_f1(["a"], ["a", "b"])

    def test_corpus_empty(self):
        assert corpus_rouge_1_f1([], []) == 0.0

    def test_best_match_uses_best_reference(self):
        score = best_match_rouge_1_f1(["golden master"], ["unrelated", "golden master"])
        assert score == pytest.approx(100.0)

    def test_best_match_empty_pools(self):
        assert best_match_rouge_1_f1([], ["a"]) == 0.0
        assert best_match_rouge_1_f1(["a"], []) == 0.0
