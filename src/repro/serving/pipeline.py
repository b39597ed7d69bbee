"""High-throughput batched entity-linking pipeline.

:class:`EntityLinkingPipeline` is the serving-path counterpart of the
research-oriented :class:`~repro.linking.blink.BlinkPipeline`: it takes a
batch of raw :class:`~repro.kb.entity.Mention` objects and runs

    tokenize → batched bi-encoder embedding → sharded MIPS retrieval
             → (optional) batched cross-encoder rerank

as vectorized stages over fixed-size micro-batches, returning one structured
:class:`LinkingResult` per mention.  Per-stage wall-clock totals are
accumulated in :class:`PipelineStats` for throughput accounting.

Example::

    pipeline = EntityLinkingPipeline.from_blink(blink, entities, k=64)
    results = pipeline.link(mentions)            # List[LinkingResult]
    results[0].predicted_entity_id, results[0].candidate_ids
    pipeline.stats.throughput()                  # mentions / second
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from ..kb.entity import Entity, Mention
from ..linking.biencoder import BiEncoder
from ..linking.candidates import ShardedEntityIndex
from ..linking.crossencoder import CrossEncoder
from .stages import (
    EmbedStage,
    PipelineBatch,
    RerankStage,
    RetrieveStage,
    TokenizeStage,
    TopCandidateStage,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..linking.blink import BlinkPipeline

#: Default micro-batch size of the serving pipeline.
DEFAULT_BATCH_SIZE = 64

#: Per-request latency samples retained by a :class:`LatencyWindow`; a
#: rolling window keeps the memory of a long-running serving process bounded
#: while the percentiles track recent traffic.
LATENCY_WINDOW = 8192


@dataclass
class LinkingResult:
    """Structured outcome of linking one mention through the pipeline.

    ``candidate_ids`` / ``retrieval_scores`` come from the MIPS stage (ranked
    by decreasing inner product); ``rerank_scores`` aligns with
    ``candidate_ids`` when the rerank stage ran, and is None otherwise.
    """

    mention_id: str
    surface: str
    gold_entity_id: Optional[str]
    candidate_ids: List[str]
    retrieval_scores: List[float]
    predicted_entity_id: Optional[str]
    rerank_scores: Optional[List[float]] = None
    #: True when the result was produced in brownout (degraded) mode —
    #: rerank skipped and a shrunken retrieval top-k.  Callers that care
    #: about answer quality can retry later; SLO accounting tracks the
    #: degraded fraction separately.
    degraded: bool = False

    @property
    def gold_in_candidates(self) -> bool:
        """Whether the gold entity survived candidate generation."""
        return self.gold_entity_id is not None and self.gold_entity_id in set(self.candidate_ids)

    @property
    def correct(self) -> bool:
        """Whether the end-to-end prediction matches the gold entity."""
        return (
            self.predicted_entity_id is not None
            and self.gold_entity_id is not None
            and self.predicted_entity_id == self.gold_entity_id
        )


class LatencyWindow:
    """Rolling window of per-request latency samples (seconds) + percentiles.

    The last :data:`LATENCY_WINDOW` samples in a bounded deque under the
    window's own lock: a recorder thread appends while monitoring callers
    read percentiles or :meth:`clear`, and every read works on a copy taken
    under the lock (iterating the live deque mid-append raises).  Both
    :class:`PipelineStats` (submit → completion inside one service) and
    :class:`~repro.serving.cluster.ClusterStats` (router submit → final
    result, requeues included) hold one.
    """

    def __init__(self) -> None:
        self._samples: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)

    def clear(self) -> None:
        with self._lock:
            self._samples.clear()

    def _copy(self) -> List[float]:
        with self._lock:
            return list(self._samples)

    def percentile(self, percentile: float) -> float:
        """Latency percentile in seconds over the window (0.0 if empty).

        ``percentile`` is in [0, 100]; linear interpolation between samples,
        matching ``numpy.percentile``'s default behaviour.
        """
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        samples = self._copy()
        if not samples:
            return 0.0
        return float(np.percentile(samples, percentile))

    def summary(self) -> Dict[str, float]:
        """p50 / p90 / p99 / mean / count of the window (zeros if empty)."""
        samples = np.asarray(self._copy())
        if samples.size == 0:
            return {"count": 0.0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}
        p50, p90, p99 = np.percentile(samples, [50.0, 90.0, 99.0])
        return {
            "count": float(samples.size),
            "mean": float(samples.mean()),
            "p50": float(p50),
            "p90": float(p90),
            "p99": float(p99),
        }


@dataclass
class PipelineStats:
    """Cumulative serving counters: mentions, batches, per-stage seconds.

    Per-request wall-clock samples (seconds, submit → completion) recorded
    by the :class:`~repro.serving.service.LinkingService` frontend live in a
    :class:`LatencyWindow`, so the percentiles reflect recent traffic with
    bounded memory.

    Counter mutation happens under one internal lock: counters and stage
    seconds are written by the scheduler thread while monitoring callers
    read summaries or :meth:`reset` between measurements, so every
    read-modify-write below must be atomic against a concurrent ``reset()``
    — otherwise a cleared dict can resurrect a stale stage total.
    """

    mentions: int = 0
    batches: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    _latency: LatencyWindow = field(
        default_factory=LatencyWindow, init=False, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def _total_seconds_locked(self) -> float:
        # Caller must hold self._lock (plain Lock — re-acquiring deadlocks).
        return sum(self.stage_seconds.values())

    @property
    def total_seconds(self) -> float:
        with self._lock:
            return self._total_seconds_locked()

    def throughput(self) -> float:
        """Processed mentions per second of stage time (0.0 when idle)."""
        with self._lock:
            seconds = self._total_seconds_locked()
            return self.mentions / seconds if seconds > 0 else 0.0

    def record(self, stage_name: str, seconds: float) -> None:
        with self._lock:
            self.stage_seconds[stage_name] = (
                self.stage_seconds.get(stage_name, 0.0) + seconds
            )

    def record_batch(self, num_mentions: int) -> None:
        """Count one processed micro-batch of ``num_mentions`` mentions."""
        with self._lock:
            self.mentions += num_mentions
            self.batches += 1

    def record_latency(self, seconds: float) -> None:
        """Add one per-request latency sample (submit → completion)."""
        self._latency.record(seconds)

    def latency_percentile(self, percentile: float) -> float:
        """See :meth:`LatencyWindow.percentile`."""
        return self._latency.percentile(percentile)

    def latency_summary(self) -> Dict[str, float]:
        """See :meth:`LatencyWindow.summary`."""
        return self._latency.summary()

    def snapshot(self) -> Dict[str, object]:
        """Consistent point-in-time copy of every counter, taken under the lock.

        The cluster layer merges snapshots from many replicas into one
        aggregate view; each snapshot is internally consistent (no counter
        can be mid-update) even while the owning scheduler thread keeps
        recording.
        """
        with self._lock:
            return {
                "mentions": self.mentions,
                "batches": self.batches,
                "stage_seconds": dict(self.stage_seconds),
            }

    def reset(self) -> None:
        with self._lock:
            self.mentions = 0
            self.batches = 0
            self.stage_seconds.clear()
        self._latency.clear()


class EntityLinkingPipeline:
    """Batched tokenize → embed → retrieve → rerank entity linker.

    Parameters
    ----------
    biencoder:
        Trained (or fresh) :class:`~repro.linking.biencoder.BiEncoder` used by
        the embed stage.
    index:
        The :class:`~repro.linking.candidates.ShardedEntityIndex` to search,
        one shard per world.
    crossencoder:
        Optional :class:`~repro.linking.crossencoder.CrossEncoder`; when
        absent (or ``rerank=False``) the top retrieval candidate is predicted.
    k:
        Candidates retrieved per mention (the paper's Recall@k budget).
    batch_size:
        Micro-batch size; incoming mention lists are chunked to this size so
        memory stays bounded under arbitrarily large requests.
    route_by_domain:
        Route each mention to its own world's shard (the zero-shot serving
        setup) instead of fanning out to all shards.
    degraded_k:
        Retrieval budget of the brownout (degraded) stage list; defaults to
        ``max(1, k // 4)``.  See :meth:`set_degraded`.
    """

    def __init__(
        self,
        biencoder: BiEncoder,
        index: ShardedEntityIndex,
        crossencoder: Optional[CrossEncoder] = None,
        k: int = 16,
        rerank: bool = True,
        batch_size: int = DEFAULT_BATCH_SIZE,
        route_by_domain: bool = True,
        degraded_k: Optional[int] = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if k <= 0:
            raise ValueError("k must be positive")
        if degraded_k is None:
            degraded_k = max(1, k // 4)
        if degraded_k <= 0:
            raise ValueError("degraded_k must be positive")
        self.biencoder = biencoder
        self.index = index
        self.crossencoder = crossencoder
        self.k = k
        self.degraded_k = degraded_k
        self.batch_size = batch_size
        self.rerank = rerank and crossencoder is not None
        self.route_by_domain = route_by_domain
        self.stats = PipelineStats()
        self._degraded = False

        self.stages = [
            TokenizeStage(biencoder.tokenizer),
            EmbedStage(biencoder),
            RetrieveStage(index, k=k, route_by_domain=route_by_domain),
            RerankStage(crossencoder) if self.rerank else TopCandidateStage(),
        ]
        # The brownout stage list: same tokenize/embed stages (their caches
        # stay warm), a shrunken retrieval budget and no cross-encoder — the
        # cheapest configuration that still answers.  Built up front so
        # flipping modes mid-traffic allocates nothing.
        self._degraded_stages = [
            self.stages[0],
            self.stages[1],
            RetrieveStage(index, k=degraded_k, route_by_domain=route_by_domain),
            TopCandidateStage(),
        ]

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_blink(
        cls,
        blink: "BlinkPipeline",
        entities: Sequence[Entity],
        k: int = 16,
        rerank: bool = True,
        batch_size: int = DEFAULT_BATCH_SIZE,
        route_by_domain: bool = True,
    ) -> "EntityLinkingPipeline":
        """Wrap a trained :class:`~repro.linking.blink.BlinkPipeline` for serving,
        over a per-world sharded index of ``entities`` (embedded lazily).

        Example::

            serving = EntityLinkingPipeline.from_blink(blink, entities, k=64)
            predictions = serving.link(mentions)
        """
        return cls(
            biencoder=blink.biencoder,
            index=blink.biencoder.build_sharded_index(entities),
            crossencoder=blink.crossencoder,
            k=k,
            rerank=rerank,
            batch_size=batch_size,
            route_by_domain=route_by_domain,
        )

    def clone(self) -> "EntityLinkingPipeline":
        """A new pipeline over the *same* models and index, with fresh stats.

        This is the unit of replication for the cluster layer: every replica
        owns its own pipeline (own stage objects, own :class:`PipelineStats`,
        own micro-batch loop) while the heavyweight read-only state — encoder
        weights and the index snapshot — is shared.  The shared components
        only mutate deterministic-value caches (tokenisation, entity
        features), so concurrent replicas can at worst repeat a computation,
        never corrupt a result.
        """
        return EntityLinkingPipeline(
            biencoder=self.biencoder,
            index=self.index,
            crossencoder=self.crossencoder,
            k=self.k,
            rerank=self.rerank,
            batch_size=self.batch_size,
            route_by_domain=self.route_by_domain,
            degraded_k=self.degraded_k,
        )

    # ------------------------------------------------------------------
    # Brownout (degraded) mode
    # ------------------------------------------------------------------
    def set_degraded(self, degraded: bool) -> None:
        """Flip between the full and the degraded stage list.

        Degraded mode drops the cross-encoder rerank and shrinks retrieval
        to ``degraded_k`` candidates — quality is shed instead of latency
        when the cluster is under sustained queue pressure.  Results carry
        :attr:`LinkingResult.degraded` so callers and SLO accounting can
        tell.  The flag is a plain attribute read once per micro-batch; a
        mid-batch flip affects the *next* batch, never splits one.
        """
        self._degraded = bool(degraded)

    # ------------------------------------------------------------------
    # Linking
    # ------------------------------------------------------------------
    def link(self, mentions: Sequence[Mention]) -> List[LinkingResult]:
        """Link a batch of mentions; returns one result per mention, in order.

        The input is chunked into ``batch_size`` micro-batches; each chunk
        flows through the stage list with every stage vectorized over the
        whole chunk.
        """
        mentions = list(mentions)
        results: List[LinkingResult] = []
        for start in range(0, len(mentions), self.batch_size):
            chunk = mentions[start:start + self.batch_size]
            results.extend(self._link_chunk(chunk))
        return results

    def link_one(self, mention: Mention) -> LinkingResult:
        """Convenience wrapper linking a single mention."""
        return self.link([mention])[0]

    def _link_chunk(self, mentions: List[Mention]) -> List[LinkingResult]:
        if not mentions:
            return []
        degraded = self._degraded  # one read: the whole chunk runs one mode
        stages = self._degraded_stages if degraded else self.stages
        batch = PipelineBatch(mentions=mentions)
        for stage in stages:
            started = time.perf_counter()
            batch = stage(batch)
            self.stats.record(stage.name, time.perf_counter() - started)
        self.stats.record_batch(len(mentions))
        return self._assemble(batch, degraded=degraded)

    def _assemble(
        self, batch: PipelineBatch, degraded: bool = False
    ) -> List[LinkingResult]:
        assert batch.retrievals is not None and batch.predictions is not None
        results: List[LinkingResult] = []
        for position, (mention, retrieval, predicted) in enumerate(
            zip(batch.mentions, batch.retrievals, batch.predictions)
        ):
            rerank_scores = None
            if batch.rerank_scores is not None:
                rerank_scores = [float(score) for score in batch.rerank_scores[position]]
            results.append(
                LinkingResult(
                    mention_id=mention.mention_id,
                    surface=mention.surface,
                    gold_entity_id=mention.gold_entity_id,
                    candidate_ids=list(retrieval.entity_ids),
                    retrieval_scores=list(retrieval.scores),
                    predicted_entity_id=predicted.entity_id if predicted is not None else None,
                    rerank_scores=rerank_scores,
                    degraded=degraded,
                )
            )
        return results
