"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

This table is the single source of the names, units and bounds;
``BENCHMARK.json`` is its serialisation (``benchmark_json``) and
``perf/README.md`` explains the choices.  Every untraced run reports every
end-to-end metric and every traced run reports every per-layer metric; a
layer a workload does not exercise reports 0 work and 0 time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

COMMAND = ["python3", "perf/run.py"]
PATHS = ["perf"]
RUN_SECONDS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS: List[Workload] = [
    Workload(
        "serve_steady",
        "Open loop, Poisson 150 req/s through Router over 2 thread replicas, k=8, rerank on: "
        "latency is mostly waiting, so router, scheduler and batching changes show.",
    ),
    Workload(
        "serve_saturated",
        "Same stack, closed loop with 256 requests outstanding: capacity; rerank (repro.nn) "
        "dominates, so nn, cross-encoder and replica changes show and queue policy does not.",
    ),
    Workload(
        "link_large_kb",
        "Offline pipeline.link over 100k entities, default index backend, fan-out, k=64, no rerank: "
        "retrieve dominates, so index changes show and cross-encoder changes must not.",
    ),
    Workload(
        "link_under_churn",
        "50k entities on IVF shards read by pipeline.link beside 200 add/update/remove per second "
        "and periodic compact: a read gain that costs writes, or the reverse, shows as two metrics.",
    ),
    Workload(
        "fewshot_train",
        "The paper's recipe per test world: rewriter fit + decode, MetaBlinkTrainer.train on syn "
        "and seed pairs, evaluate: autodiff, reweighting and decode dominate, serving does not.",
    ),
]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which an end-to-end metric may worsen.
    bound: float = 0.0
    #: Module whose boundary the number is measured at (per-layer only).
    layer: str = ""
    #: End-to-end metric @ workload the number is expected to move.
    moves: str = ""


END_TO_END: List[Metric] = [
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("throughput_per_s", "1/s", "higher", 0.25),
    Metric("quality", "share", "higher", 0.15),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
]

_STAGES = ("tokenize", "embed", "retrieve", "rerank", "assemble")
_STAGE_MOVES = {
    "rerank": "throughput_per_s@serve_saturated",
    "retrieve": "throughput_per_s@link_large_kb, link_under_churn",
}


def _pipeline_metrics() -> List[Metric]:
    metrics = []
    for stage in _STAGES:
        moves = _STAGE_MOVES.get(stage, "service time inside latency_p50_ms@serve_steady")
        metrics.append(Metric(f"pipeline.{stage}_ms_per_mention", "ms", "lower",
                              layer="serving.pipeline", moves=moves))
        metrics.append(Metric(f"pipeline.{stage}_share", "share", "lower",
                              layer="serving.pipeline", moves=moves))
    return metrics


def _layer(layer: str, moves: str, *rows) -> List[Metric]:
    return [Metric(name, unit, better, layer=layer, moves=moves) for name, unit, better in rows]


PER_LAYER: List[Metric] = [
    *_layer("serving.cluster", "throughput_per_s@serve_saturated",
            ("cluster.dispatch_ms", "ms", "lower")),
    *_layer("serving.cluster", "throughput_per_s@serve_steady (goodput), failed",
            ("cluster.sent", "count", "higher"),
            ("cluster.shed", "count", "lower"),
            ("cluster.requeued", "count", "lower"),
            ("cluster.affinity_miss", "count", "lower"),
            ("cluster.slo_miss_share", "share", "lower")),
    *_layer("serving.cluster", "tail of latency_p50_ms@serve_steady (informational)",
            ("cluster.replica_imbalance", "ratio", "lower"),
            ("cluster.latency_p95_ms", "ms", "lower"),
            ("cluster.latency_p99_ms", "ms", "lower"),
            ("cluster.latency_max_ms", "ms", "lower")),
    *_layer("serving.service", "latency_p50_ms@serve_steady",
            ("service.queue_wait_p50_ms", "ms", "lower"),
            ("service.queue_wait_p95_ms", "ms", "lower"),
            ("service.complete_ms", "ms", "lower"),
            ("service.busy_share", "share", "lower")),
    *_layer("serving.service", "throughput_per_s@serve_saturated",
            ("service.batch_size_mean", "count", "higher"),
            ("service.batches", "count", "lower")),
    *_pipeline_metrics(),
    *_layer("repro.index", "throughput_per_s@link_large_kb",
            ("index.search_ms_per_query", "ms", "lower"),
            ("index.resolve_ms_per_query", "ms", "lower")),
    *_layer("repro.index", "latency_p50_ms@link_under_churn",
            ("index.add_ms", "ms", "lower"),
            ("index.update_ms", "ms", "lower"),
            ("index.remove_ms", "ms", "lower")),
    *_layer("repro.index", "throughput_per_s@link_under_churn",
            ("index.compact_s", "s", "lower"),
            ("index.compactions", "count", "higher"),
            ("index.search_ms_per_query_during_compact", "ms", "lower"),
            ("index.pending_rows", "count", "lower"),
            ("index.tombstones", "count", "lower"),
            ("index.mutations_applied", "count", "higher"),
            ("index.mutation_late_p99_ms", "ms", "lower")),
    *_layer("repro.index", "setup_s",
            ("index.build_s", "s", "lower"),
            ("index.entities", "count", "higher")),
    *_layer("linking.biencoder", "throughput_per_s@link_under_churn",
            ("biencoder.embed_ms_per_row", "ms", "lower"),
            ("biencoder.rows", "count", "higher")),
    *_layer("linking.crossencoder", "throughput_per_s@serve_saturated",
            ("crossencoder.score_ms_per_pair", "ms", "lower"),
            ("crossencoder.pairs", "count", "higher")),
    *_layer("repro.nn", "throughput_per_s@serve_saturated",
            ("nn.forward_probe_ms", "ms", "lower")),
    *_layer("repro.nn", "throughput_per_s@fewshot_train",
            ("nn.backward_probe_ms", "ms", "lower")),
    *_layer("meta.reweight", "throughput_per_s@fewshot_train",
            ("reweight.compute_weights_s", "s", "lower"),
            ("reweight.share", "share", "lower"),
            ("reweight.selected_fraction", "share", "higher")),
    *_layer("training.engine", "latency_p50_ms@fewshot_train",
            ("engine.fit_s", "s", "lower"),
            ("engine.weighted_loss_s", "s", "lower"),
            ("engine.backward_s", "s", "lower"),
            ("engine.update_s", "s", "lower"),
            ("engine.finetune_s", "s", "lower"),
            ("engine.steps", "count", "higher"),
            ("engine.skipped_steps", "count", "lower")),
    *_layer("generation", "latency_p50_ms@fewshot_train",
            ("rewriter.fit_s", "s", "lower"),
            ("rewriter.decode_s", "s", "lower"),
            ("rewriter.tokens_per_s", "1/s", "higher"),
            ("rewriter.pairs", "count", "higher"),
            ("synthesis.exact_match_s", "s", "lower")),
    *_layer("eval", "latency_p50_ms@fewshot_train",
            ("eval.link_s", "s", "lower"),
            ("eval.mentions", "count", "higher")),
    *_layer("perf", "whether the open loop kept its schedule",
            ("generator.late_p99_ms", "ms", "lower"),
            ("generator.sent", "count", "higher")),
    *_layer("perf", "how far tracing distorts the numbers above",
            ("trace.latency_p50_ms", "ms", "lower"),
            ("trace.throughput_per_s", "1/s", "higher"),
            ("trace.overhead_share", "share", "lower"),
            ("trace.spans", "count", "lower")),
]


def benchmark_json() -> Dict[str, object]:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
