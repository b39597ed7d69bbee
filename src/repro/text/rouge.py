"""ROUGE-N, and the ROUGE-1 F1 of Table XI.

Table XI of the paper reports ROUGE-1 F1 between golden mentions and mentions
produced by Exact Match / Syn / Syn*.  This is a dependency-free
reimplementation of the standard recall/precision/F1 formulation over
n-gram multisets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Sequence

from .normalization import simple_tokenize


@dataclass(frozen=True)
class RougeScore:
    """Precision / recall / F1 triple for one ROUGE variant."""

    precision: float
    recall: float
    f1: float


def _ngrams(tokens: Sequence[str], order: int) -> Counter:
    if order <= 0:
        raise ValueError("ngram order must be positive")
    return Counter(tuple(tokens[i:i + order]) for i in range(len(tokens) - order + 1))


def _prf(matches: float, candidate_total: float, reference_total: float) -> RougeScore:
    precision = matches / candidate_total if candidate_total else 0.0
    recall = matches / reference_total if reference_total else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return RougeScore(precision=precision, recall=recall, f1=f1)


def rouge_n(candidate: str, reference: str, order: int = 1) -> RougeScore:
    """ROUGE-N between a candidate and a reference string."""
    candidate_tokens = simple_tokenize(candidate)
    reference_tokens = simple_tokenize(reference)
    candidate_ngrams = _ngrams(candidate_tokens, order) if len(candidate_tokens) >= order else Counter()
    reference_ngrams = _ngrams(reference_tokens, order) if len(reference_tokens) >= order else Counter()
    overlap = sum((candidate_ngrams & reference_ngrams).values())
    return _prf(overlap, sum(candidate_ngrams.values()), sum(reference_ngrams.values()))


def rouge_1(candidate: str, reference: str) -> RougeScore:
    """ROUGE-1, the primary metric of Table XI."""
    return rouge_n(candidate, reference, order=1)


def corpus_rouge_1_f1(candidates: Sequence[str], references: Sequence[str]) -> float:
    """Mean ROUGE-1 F1 over aligned candidate / reference lists (as %)."""
    if len(candidates) != len(references):
        raise ValueError("candidates and references must have equal length")
    if not candidates:
        return 0.0
    scores = [rouge_1(c, r).f1 for c, r in zip(candidates, references)]
    return 100.0 * sum(scores) / len(scores)


def best_match_rouge_1_f1(candidates: Sequence[str], references: Sequence[str]) -> float:
    """Mean over candidates of the best ROUGE-1 F1 against any reference (as %).

    The paper compares generated mentions against *sampled* golden mentions
    from the domain rather than aligned pairs, so we score each candidate by
    its best match in the reference pool.
    """
    if not candidates or not references:
        return 0.0
    totals: List[float] = []
    for candidate in candidates:
        totals.append(max(rouge_1(candidate, reference).f1 for reference in references))
    return 100.0 * sum(totals) / len(totals)
