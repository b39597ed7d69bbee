"""Two-stage evaluation protocol helpers.

``evaluate_pipeline`` links a mention list through a serving pipeline and
returns :class:`~repro.eval.metrics.LinkingMetrics` with the raw results;
``evaluate_name_matching`` does the same for the heuristic baseline (which has
no candidate-generation stage, so only U.Acc is meaningful, as in the paper's
tables).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..kb.entity import Entity, Mention
from ..linking.name_matching import NameMatchingLinker
from ..serving.pipeline import EntityLinkingPipeline, LinkingResult
from .metrics import LinkingMetrics, compute_metrics


@dataclass
class EvaluationResult:
    """Metrics plus the raw linking results (useful for error analysis)."""

    metrics: LinkingMetrics
    predictions: List[LinkingResult]


def evaluate_pipeline(
    pipeline: EntityLinkingPipeline, mentions: Sequence[Mention]
) -> EvaluationResult:
    """Link ``mentions`` through ``pipeline`` and score them.

    The pipeline carries its index, ``k`` and rerank setting; build it with
    :meth:`~repro.serving.EntityLinkingPipeline.from_blink` to evaluate a
    trained BLINK / MetaBLINK model.
    """
    predictions = pipeline.link(mentions)
    return EvaluationResult(metrics=compute_metrics(predictions), predictions=predictions)


def evaluate_name_matching(
    entities: Sequence[Entity],
    mentions: Sequence[Mention],
) -> LinkingMetrics:
    """Evaluate the Name Matching baseline (U.Acc only, as in Table V/VI)."""
    linker = NameMatchingLinker(entities)
    labelled = [m for m in mentions if m.gold_entity_id is not None]
    if not labelled:
        return LinkingMetrics(0.0, 0.0, 0.0, 0)
    accuracy = 100.0 * sum(
        1
        for mention in labelled
        if (predicted := linker.predict(mention)) is not None
        and predicted.entity_id == mention.gold_entity_id
    ) / len(labelled)
    return LinkingMetrics(
        recall=0.0,
        normalized_accuracy=0.0,
        unnormalized_accuracy=accuracy,
        num_examples=len(labelled),
    )
