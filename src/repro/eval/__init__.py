"""Evaluation harness: metrics, protocol, experiment runners and reporting."""

from .experiments import ExperimentSuite, small_experiment_config
from .metrics import (
    LinkingMetrics,
    accuracy_from_predictions,
    compute_metrics,
    macro_average,
    recall_at_k,
)
from .protocol import (
    EvaluationResult,
    evaluate_name_matching,
    evaluate_pipeline,
)
from .reporting import format_table, markdown_table

__all__ = [
    "LinkingMetrics",
    "compute_metrics",
    "accuracy_from_predictions",
    "macro_average",
    "recall_at_k",
    "EvaluationResult",
    "evaluate_pipeline",
    "evaluate_name_matching",
    "ExperimentSuite",
    "small_experiment_config",
    "format_table",
    "markdown_table",
]
