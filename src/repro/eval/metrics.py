"""Evaluation metrics: Recall@k, normalised and unnormalised accuracy.

The paper's protocol (Section VI-A) splits entity linking into candidate
generation and candidate ranking:

* **Recall@k** — fraction of mentions whose gold entity is among the k
  retrieved candidates;
* **normalised accuracy (N.Acc)** — ranking accuracy restricted to mentions
  whose gold entity was retrieved;
* **unnormalised accuracy (U.Acc)** — recall × N.Acc, i.e. end-to-end accuracy.

All values are reported in percent, matching the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..serving.pipeline import LinkingResult


@dataclass(frozen=True)
class LinkingMetrics:
    """Two-stage evaluation result (values in percent)."""

    recall: float
    normalized_accuracy: float
    unnormalized_accuracy: float
    num_examples: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "recall": self.recall,
            "normalized_accuracy": self.normalized_accuracy,
            "unnormalized_accuracy": self.unnormalized_accuracy,
            "num_examples": float(self.num_examples),
        }

    def rounded(self, digits: int = 2) -> "LinkingMetrics":
        return LinkingMetrics(
            recall=round(self.recall, digits),
            normalized_accuracy=round(self.normalized_accuracy, digits),
            unnormalized_accuracy=round(self.unnormalized_accuracy, digits),
            num_examples=self.num_examples,
        )


def compute_metrics(predictions: Sequence[LinkingResult]) -> LinkingMetrics:
    """Compute Recall@k / N.Acc / U.Acc over two-stage linking results."""
    labelled = [p for p in predictions if p.gold_entity_id is not None]
    if not labelled:
        return LinkingMetrics(0.0, 0.0, 0.0, 0)
    retrieved = [p for p in labelled if p.gold_in_candidates]
    correct = [p for p in labelled if p.correct]
    correct_and_retrieved = [p for p in retrieved if p.correct]

    recall = len(retrieved) / len(labelled)
    normalized = len(correct_and_retrieved) / len(retrieved) if retrieved else 0.0
    unnormalized = len(correct) / len(labelled)
    return LinkingMetrics(
        recall=100.0 * recall,
        normalized_accuracy=100.0 * normalized,
        unnormalized_accuracy=100.0 * unnormalized,
        num_examples=len(labelled),
    )


def accuracy_from_predictions(
    predicted_ids: Sequence[Optional[str]],
    gold_ids: Sequence[Optional[str]],
) -> float:
    """Plain accuracy (in percent) between aligned prediction / gold id lists."""
    if len(predicted_ids) != len(gold_ids):
        raise ValueError("prediction and gold lists must align")
    labelled = [(p, g) for p, g in zip(predicted_ids, gold_ids) if g is not None]
    if not labelled:
        return 0.0
    hits = sum(1 for p, g in labelled if p == g)
    return 100.0 * hits / len(labelled)


def recall_at_k(
    approx_results: Sequence[Sequence[str]],
    exact_results: Sequence[Sequence[str]],
    k: Optional[int] = None,
) -> float:
    """Approximate-vs-exact retrieval recall: overlap fraction at cutoff ``k``.

    For each query, the fraction of the *exact* top-k candidate ids that the
    approximate retriever also returned (order-insensitive), averaged over
    queries.  This is the quality metric of an approximate index — 1.0 means
    every probed cell contained the true top-k — distinct from the gold-based
    Recall@k of :func:`compute_metrics`, which measures the embedding model.

    Results may be :class:`~repro.linking.candidates.RetrievalResult` objects
    (their ``entity_ids`` are used) or plain id sequences.  ``k=None`` uses
    each exact result's full length.  Queries whose exact result is empty are
    skipped; if every exact result is empty the recall is defined as 1.0
    (the approximate index missed nothing).
    """
    if len(approx_results) != len(exact_results):
        raise ValueError("approximate and exact result lists must align")

    def ids(result: object) -> Sequence[str]:
        return getattr(result, "entity_ids", result)  # type: ignore[return-value]

    total = 0.0
    counted = 0
    for approx, exact in zip(approx_results, exact_results):
        exact_ids = list(ids(exact))
        if k is not None:
            exact_ids = exact_ids[:k]
        if not exact_ids:
            continue
        approx_ids = set(ids(approx) if k is None else list(ids(approx))[:k])
        total += len(approx_ids.intersection(exact_ids)) / len(exact_ids)
        counted += 1
    if counted == 0:
        return 1.0
    return total / counted


def macro_average(metrics: Sequence[LinkingMetrics]) -> LinkingMetrics:
    """Unweighted mean of several metric sets (used for cross-domain averages)."""
    if not metrics:
        return LinkingMetrics(0.0, 0.0, 0.0, 0)
    return LinkingMetrics(
        recall=sum(m.recall for m in metrics) / len(metrics),
        normalized_accuracy=sum(m.normalized_accuracy for m in metrics) / len(metrics),
        unnormalized_accuracy=sum(m.unnormalized_accuracy for m in metrics) / len(metrics),
        num_examples=sum(m.num_examples for m in metrics),
    )
