"""Serving layer: the high-throughput batched entity-linking pipeline.

This package turns the research pipeline (bi-encoder candidate generation +
cross-encoder reranking) into a production-shaped serving path:

* :class:`~repro.serving.pipeline.EntityLinkingPipeline` — batched
  tokenize → embed → retrieve → rerank over micro-batches, returning
  structured :class:`~repro.serving.pipeline.LinkingResult` objects.
* :class:`~repro.serving.service.LinkingService` — the asynchronous frontend:
  per-mention submits, dynamic micro-batching (an idle scheduler flushes at
  once; a busy one lets a partial batch wait at most the last batch's run
  time; a full ``max_batch_size`` batch always leaves), per-request futures
  and latency percentiles.  The same object is one replica of a pool: its
  lifecycle state is read off its scheduler, and its
  :class:`~repro.serving.service.FaultInjector` slows or freezes it.
* :mod:`repro.serving.stages` — the vectorized stage implementations and the
  :class:`~repro.serving.stages.PipelineBatch` carrier they transform.
* :mod:`repro.serving.cluster` — the multi-worker tier: a
  :class:`~repro.serving.cluster.ReplicaPool` of ``LinkingService``
  replicas, each over a clone of one pipeline, behind a
  :class:`~repro.serving.cluster.Router` with world-affinity dispatch,
  least-pending balancing, admission control (explicit
  :class:`~repro.serving.service.RejectedError` sheds) and automatic requeue
  from dead replicas, plus :class:`~repro.serving.cluster.FaultEvent`
  injuries for chaos testing.  Its counters are read through
  ``router.stats.snapshot()``.
* :mod:`repro.serving.resilience` — the self-healing layer: a
  :class:`~repro.serving.resilience.Supervisor` thread that auto-restarts
  dead replicas under a :class:`~repro.serving.resilience.RestartPolicy`
  and owns the set of quarantined slots, per-replica circuit breakers,
  end-to-end request deadlines and a
  :class:`~repro.serving.resilience.BrownoutController` that trades answer
  quality for latency under sustained overload.

Quickstart::

    from repro.serving import EntityLinkingPipeline, LinkingService

    pipeline = EntityLinkingPipeline.from_blink(blink, entities, k=64)
    for result in pipeline.link(mentions):
        print(result.surface, "->", result.predicted_entity_id)

    with LinkingService(pipeline) as service:
        service.warm_up()
        future = service.submit(mentions[0])      # one request at a time
        print(future.result().predicted_entity_id)

    pool = ReplicaPool.from_pipeline(pipeline, replicas=4)
    with Router(pool, admission=AdmissionPolicy(watermark=512)) as router:
        router.warm_up()
        print(router.submit(mentions[0]).result().predicted_entity_id)
"""

from .cluster import (
    AdmissionPolicy,
    BreakerOpenError,
    ClusterStats,
    FaultEvent,
    ReplicaPool,
    Router,
)
from .pipeline import (
    DEFAULT_BATCH_SIZE,
    EntityLinkingPipeline,
    LinkingResult,
    PipelineStats,
)
from .resilience import (
    BreakerPolicy,
    BrownoutController,
    BrownoutPolicy,
    CircuitBreaker,
    RestartPolicy,
    Supervisor,
)
from .service import (
    DeadlineExpiredError,
    FaultInjector,
    LinkingService,
    OverCapacityError,
    RejectedError,
    ReplicaDiedError,
)
from .stages import (
    EmbedStage,
    MentionTokens,
    PipelineBatch,
    RerankStage,
    RetrieveStage,
    TokenizeStage,
    TopCandidateStage,
)

__all__ = [
    "AdmissionPolicy",
    "BreakerOpenError",
    "BreakerPolicy",
    "BrownoutController",
    "BrownoutPolicy",
    "CircuitBreaker",
    "ClusterStats",
    "DEFAULT_BATCH_SIZE",
    "DeadlineExpiredError",
    "EntityLinkingPipeline",
    "FaultEvent",
    "FaultInjector",
    "LinkingResult",
    "LinkingService",
    "OverCapacityError",
    "PipelineStats",
    "RejectedError",
    "ReplicaDiedError",
    "ReplicaPool",
    "RestartPolicy",
    "Router",
    "Supervisor",
    "PipelineBatch",
    "MentionTokens",
    "TokenizeStage",
    "EmbedStage",
    "RetrieveStage",
    "RerankStage",
    "TopCandidateStage",
]
