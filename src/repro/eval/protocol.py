"""Two-stage evaluation protocol helpers.

``evaluate_pipeline`` runs a BLINK-style pipeline over a mention list and
returns :class:`~repro.eval.metrics.LinkingMetrics`; ``evaluate_name_matching``
does the same for the heuristic baseline (which has no candidate-generation
stage, so only U.Acc is meaningful, as in the paper's tables).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from ..kb.entity import Entity, Mention
from ..linking.blink import BlinkPipeline, LinkingPrediction
from ..linking.name_matching import NameMatchingLinker
from ..serving.pipeline import EntityLinkingPipeline
from .metrics import LinkingMetrics, compute_metrics


@dataclass
class EvaluationResult:
    """Metrics plus the raw predictions (useful for error analysis)."""

    metrics: LinkingMetrics
    predictions: List[LinkingPrediction]


def evaluate_pipeline(
    pipeline: Union[BlinkPipeline, EntityLinkingPipeline],
    mentions: Sequence[Mention],
    entities: Optional[Sequence[Entity]] = None,
    k: Optional[int] = None,
    rerank: Optional[bool] = None,
) -> EvaluationResult:
    """Evaluate a trained BLINK / MetaBLINK / serving pipeline on mentions.

    Accepts either a research :class:`~repro.linking.blink.BlinkPipeline`
    (``entities`` then supplies the candidate pool, searched with Recall@``k``,
    default 16) or a prebuilt :class:`~repro.serving.EntityLinkingPipeline`,
    which already carries its index, ``k`` and rerank setting — passing
    ``entities``/``k``/``rerank`` alongside a serving pipeline raises rather
    than being silently ignored.
    """
    if isinstance(pipeline, EntityLinkingPipeline):
        if entities is not None or k is not None or rerank is not None:
            raise ValueError(
                "an EntityLinkingPipeline already carries its index, k and "
                "rerank setting; configure the pipeline instead of passing "
                "entities/k/rerank here"
            )
        predictions = [
            LinkingPrediction(
                mention_id=result.mention_id,
                gold_entity_id=result.gold_entity_id,
                candidate_ids=list(result.candidate_ids),
                predicted_entity_id=result.predicted_entity_id,
            )
            for result in pipeline.link(mentions)
        ]
    else:
        if entities is None:
            raise ValueError("entities are required when evaluating a BlinkPipeline")
        predictions = pipeline.predict(
            mentions,
            entities,
            k=16 if k is None else k,
            rerank=True if rerank is None else rerank,
        )
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
