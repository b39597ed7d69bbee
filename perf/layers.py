"""Where the spans go on and how they become the per-layer metrics.

``trace_*`` put wrappers on the public call boundaries of one layer each
(nothing inside the program is edited; no private method is wrapped);
``*_metrics`` read the recorded spans back.  Times are sums over the traced
pass divided by the work counted at the same boundary.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

import numpy as np

from repro.linking.candidates import ShardedEntityIndex
from repro.nn.tensor import no_grad
from repro.serving import EntityLinkingPipeline

from . import spec
from .load import LoadLog
from .stack import ServingStack
from .trace import Span, Tracer

STAGES = ("tokenize", "embed", "retrieve", "rerank")
#: serve_steady's latency limit, counted from the due time.
SLO_MS = 100.0


def zeros() -> Dict[str, float]:
    """Every per-layer metric at 0: the report of a layer that did no work."""
    return {metric.name: 0.0 for metric in spec.PER_LAYER}


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _ratio(total: float, count: float) -> float:
    return total / count if count else 0.0


def _sum(spans: Sequence[Span]) -> float:
    return float(sum(span.duration for span in spans))


def _work(spans: Sequence[Span]) -> int:
    return sum(span.work for span in spans)


# ----------------------------------------------------------------------
# serving.pipeline / stages, linking.*, repro.index
# ----------------------------------------------------------------------
def trace_pipeline(tracer: Tracer, pipeline: EntityLinkingPipeline, shared: bool = True) -> None:
    """Spans on one pipeline's ``link`` and stages; ``shared`` also covers the
    encoders and index it shares with its clones (wrap those once)."""
    tracer.wrap(pipeline, "link", "pipeline.link", work=len,
                requests=lambda mentions: [m.mention_id for m in mentions])
    for position in range(len(pipeline.stages)):
        tracer.wrap_stage(pipeline.stages, position)
    if not shared:
        return
    tracer.wrap(pipeline.biencoder, "embed_mention_id_matrix", "biencoder.embed", work=len)
    if pipeline.rerank:
        tracer.wrap(
            pipeline.crossencoder, "score_candidate_batch", "crossencoder.score",
            work=lambda mentions, candidates, **_: sum(len(c) for c in candidates),
        )
    index = pipeline.index
    tracer.wrap(index, "search", "index.search", work=lambda queries, *_, **__: len(queries))
    if isinstance(index, ShardedEntityIndex):
        tracer.wrap(index, "search_routed", "index.search",
                    work=lambda queries, *_, **__: len(queries))
        for method, name in (("add_entities", "index.add"), ("update_entities", "index.update"),
                             ("remove_entities", "index.remove")):
            tracer.wrap(index, method, name, work=lambda entities, *_, **__: len(entities))
        tracer.wrap(index, "compact", "index.compact")


def pipeline_metrics(tracer: Tracer) -> Dict[str, float]:
    links = tracer.named("pipeline.link")
    link_ids = {span.span_id for span in links}
    link_seconds, mentions = _sum(links), _work(links)
    metrics: Dict[str, float] = {}
    staged = 0.0
    for stage in STAGES:
        seconds = _sum([s for s in tracer.named(f"stage.{stage}") if s.parent in link_ids])
        staged += seconds
        metrics[f"pipeline.{stage}_ms_per_mention"] = _ms(_ratio(seconds, mentions))
        metrics[f"pipeline.{stage}_share"] = _ratio(seconds, link_seconds)
    # What link spends outside the four stages: chunking, result assembly and
    # the rerank-free top-candidate pick.
    metrics["pipeline.assemble_ms_per_mention"] = _ms(_ratio(link_seconds - staged, mentions))
    metrics["pipeline.assemble_share"] = _ratio(link_seconds - staged, link_seconds)

    embeds = tracer.named("biencoder.embed")
    metrics["biencoder.rows"] = float(_work(embeds))
    metrics["biencoder.embed_ms_per_row"] = _ms(_ratio(_sum(embeds), _work(embeds)))
    scores = tracer.named("crossencoder.score")
    metrics["crossencoder.pairs"] = float(_work(scores))
    metrics["crossencoder.score_ms_per_pair"] = _ms(_ratio(_sum(scores), _work(scores)))
    return metrics


def index_metrics(tracer: Tracer, index) -> Dict[str, float]:
    by_id = {span.span_id: span for span in tracer.spans}
    # search_routed calls search: only the outermost span of a nest counts.
    searches = [
        span for span in tracer.named("index.search")
        if span.parent is None or by_id[span.parent].name != "index.search"
    ]
    queries = _work(searches)
    retrieve = _sum(tracer.named("stage.retrieve"))
    compacts = tracer.named("index.compact")
    during = [
        span for span in searches
        if any(span.start < c.end and c.start < span.end for c in compacts)
    ]
    metrics = {
        "index.search_ms_per_query": _ms(_ratio(_sum(searches), queries)),
        "index.resolve_ms_per_query": _ms(_ratio(retrieve - _sum(searches), queries)),
        "index.compactions": float(len(compacts)),
        "index.compact_s": float(np.median([c.duration for c in compacts])) if compacts else 0.0,
        "index.search_ms_per_query_during_compact": _ms(_ratio(_sum(during), _work(during))),
        "index.entities": float(len(index)),
    }
    for kind in ("add", "update", "remove"):
        calls = tracer.named(f"index.{kind}")
        metrics[f"index.{kind}_ms"] = (
            _ms(float(np.median([c.duration for c in calls]))) if calls else 0.0
        )
    if isinstance(index, ShardedEntityIndex):
        shards = [index.shard(world) for world in index.worlds()]
        stats = [shard.stats() for shard in shards if shard is not None]
        metrics["index.pending_rows"] = float(sum(s.get("pending", 0) for s in stats))
        metrics["index.tombstones"] = float(sum(s.get("tombstones", 0) for s in stats))
    return metrics


# ----------------------------------------------------------------------
# serving.cluster / serving.service
# ----------------------------------------------------------------------
def trace_serving(tracer: Tracer, stack: ServingStack) -> None:
    router = stack.router
    tracer.wrap(router, "submit", "router.submit",
                request=lambda mention, *_, **__: mention.mention_id)
    for number, replica in enumerate(router.pool.replicas):
        tracer.wrap(replica, "submit", "replica.submit",
                    request=lambda mention, *_, **__: mention.mention_id)
        trace_pipeline(tracer, replica.pipeline, shared=number == 0)


def load_metrics(log: LoadLog, measured: np.ndarray, open_loop: bool) -> Dict[str, float]:
    """What the generator saw: tail latency, misses, its own lateness."""
    latency = log.latency_ms()[measured]
    finished = latency[~np.isnan(latency)]
    metrics = {"generator.sent": float(len(log.requests))}
    if len(finished):
        p95, p99 = np.percentile(finished, [95.0, 99.0])
        metrics.update({
            "cluster.latency_p95_ms": float(p95),
            "cluster.latency_p99_ms": float(p99),
            "cluster.latency_max_ms": float(finished.max()),
        })
    if open_loop:
        missed = np.isnan(latency) | (latency > SLO_MS)
        metrics["cluster.slo_miss_share"] = float(missed.mean()) if len(latency) else 0.0
        metrics["generator.late_p99_ms"] = float(np.percentile(log.late_ms(), 99.0))
    return metrics


def serving_metrics(tracer: Tracer, stack: ServingStack, log: LoadLog, wall: float) -> Dict[str, float]:
    """Cluster and service numbers; call after the load and before close()."""
    snapshot = stack.router.stats.snapshot()
    counters = snapshot["router"]
    per_slot = [slot["mentions"] for slot in snapshot["per_replica"]]
    self_times = tracer.self_times()
    submits = tracer.named("router.submit")
    links = tracer.named("pipeline.link")

    link_of: Dict[str, Span] = {}
    for link in links:
        for request in link.requests:
            link_of[request] = link
    waits = [
        link_of[span.request].start - span.start
        for span in tracer.named("replica.submit") if span.request in link_of
    ]
    completes = [
        log.done[position] - link_of[request.mention_id].end
        for position, request in enumerate(log.requests)
        if request.mention_id in link_of and not np.isnan(log.done[position])
    ]
    wait_p50, wait_p95 = np.percentile(waits, [50.0, 95.0]) if waits else (0.0, 0.0)
    return {
        "cluster.dispatch_ms": _ms(_ratio(sum(self_times[s.span_id] for s in submits), len(submits))),
        "cluster.sent": float(counters["submitted"]),
        "cluster.shed": float(counters["shed_total"]),
        "cluster.requeued": float(counters["requeued"]),
        "cluster.affinity_miss": float(counters["affinity_misses"]),
        "cluster.replica_imbalance": _ratio(max(per_slot), float(np.mean(per_slot))),
        "service.queue_wait_p50_ms": _ms(float(wait_p50)),
        "service.queue_wait_p95_ms": _ms(float(wait_p95)),
        "service.complete_ms": _ms(float(np.median(completes))) if completes else 0.0,
        "service.batch_size_mean": _ratio(_work(links), len(links)),
        "service.batches": float(len(links)),
        "service.busy_share": _ratio(_sum(links), wall * len(per_slot)),
    }


# ----------------------------------------------------------------------
# generation, meta.reweight, training.engine, eval
# ----------------------------------------------------------------------
def trace_training(tracer: Tracer) -> List[object]:
    """Class- and module-level spans for the recipe; returns the list the
    engines that ran are collected in (their ``step_metrics`` are public)."""
    from repro.generation import synthesis
    from repro.generation.rewriter import MentionRewriter
    from repro.linking.biencoder import BiEncoderTrainer
    from repro.linking.crossencoder import CrossEncoderTrainer
    from repro.meta.reweight import ExampleReweighter
    from repro.nn import Adam, Tensor
    from repro.training.engine import MetaTrainingEngine
    from repro.training.tasks import BiEncoderMetaTask, CrossEncoderMetaTask

    engines: List[object] = []

    def fit_work(engine, synthetic_items, *_args, **_kwargs) -> int:
        engines.append(engine)
        return len(synthetic_items)

    tracer.wrap(MetaTrainingEngine, "fit", "engine.fit", work=fit_work)
    tracer.wrap(ExampleReweighter, "compute_weights", "reweight.compute_weights")
    tracer.wrap(BiEncoderMetaTask, "weighted_loss", "engine.weighted_loss")
    tracer.wrap(CrossEncoderMetaTask, "weighted_loss", "engine.weighted_loss")
    tracer.wrap(Tensor, "backward", "nn.backward")
    tracer.wrap(Adam, "step", "optim.step")
    # MetaBlinkTrainer.train runs the plain trainers only for the seed fine-tune.
    tracer.wrap(BiEncoderTrainer, "fit", "finetune.fit")
    tracer.wrap(CrossEncoderTrainer, "fit", "finetune.fit")
    tracer.wrap(MentionRewriter, "fit", "rewriter.fit")
    tracer.wrap(MentionRewriter, "rewrite_entities", "rewriter.decode",
                work=lambda _rewriter, entities, *_, **__: len(entities))
    tracer.wrap(synthesis, "build_exact_match_data", "synthesis.exact_match")
    return engines


def training_metrics(
    tracer: Tracer, engines: Sequence[object], recipes: int, decoded_tokens: int
) -> Dict[str, float]:
    """Per-recipe means (seconds, counts) over the traced pass."""
    fits = tracer.named("engine.fit")
    fit_ids = {span.span_id for span in fits}
    fit_seconds = _sum(fits)

    def under_fit(name: str) -> float:
        return _sum([span for span in tracer.named(name) if span.parent in fit_ids])

    reweight = under_fit("reweight.compute_weights")
    steps = [step for engine in engines for step in engine.step_metrics]
    decode = tracer.named("rewriter.decode")
    evals = tracer.named("eval.link")
    return {
        "engine.fit_s": _ratio(fit_seconds, recipes),
        "reweight.compute_weights_s": _ratio(reweight, recipes),
        "reweight.share": _ratio(reweight, fit_seconds),
        "reweight.selected_fraction": (
            float(np.mean([step.selected_fraction for step in steps])) if steps else 0.0
        ),
        "engine.weighted_loss_s": _ratio(under_fit("engine.weighted_loss"), recipes),
        "engine.backward_s": _ratio(under_fit("nn.backward"), recipes),
        "engine.update_s": _ratio(under_fit("optim.step"), recipes),
        "engine.finetune_s": _ratio(_sum(tracer.named("finetune.fit")), recipes),
        "engine.steps": _ratio(len(steps), recipes),
        "engine.skipped_steps": _ratio(sum(step.skipped for step in steps), recipes),
        "rewriter.fit_s": _ratio(_sum(tracer.named("rewriter.fit")), recipes),
        "rewriter.decode_s": _ratio(_sum(decode), recipes),
        "rewriter.tokens_per_s": _ratio(decoded_tokens, _sum(decode)),
        "rewriter.pairs": _ratio(_work(decode), recipes),
        "synthesis.exact_match_s": _ratio(_sum(tracer.named("synthesis.exact_match")), recipes),
        "eval.link_s": _ratio(_sum(evals), recipes),
        "eval.mentions": _ratio(_work(evals), recipes),
    }


# ----------------------------------------------------------------------
# repro.nn
# ----------------------------------------------------------------------
PROBE_ROWS = 32
PROBE_REPEATS = 20


def nn_probe(crossencoder) -> Dict[str, float]:
    """A fixed probe, not a trace: the cross-encoder's encoder on a seeded
    ``32 x max_length`` id matrix, no-grad forward and forward + backward."""
    width = crossencoder.config.encoder.max_length
    vocabulary = len(crossencoder.tokenizer.vocabulary)
    ids = np.random.default_rng(0).integers(8, vocabulary, size=(PROBE_ROWS, width))
    forward: List[float] = []
    backward: List[float] = []
    for _ in range(PROBE_REPEATS):
        started = time.perf_counter()
        with no_grad():
            crossencoder.scores_from_ids(ids)
        forward.append(time.perf_counter() - started)
        started = time.perf_counter()
        crossencoder.zero_grad()
        crossencoder.scores_from_ids(ids).sum().backward()
        backward.append(time.perf_counter() - started)
    crossencoder.zero_grad()
    return {
        "nn.forward_probe_ms": _ms(float(np.median(forward))),
        "nn.backward_probe_ms": _ms(float(np.median(backward))),
    }


def trace_overhead(tracer: Tracer, wall: float) -> Dict[str, float]:
    """Spans recorded times the cost of one span here, over the run's wall."""
    return {
        "trace.spans": float(len(tracer.spans)),
        "trace.overhead_share": _ratio(len(tracer.spans) * tracer.span_cost(), wall),
    }
