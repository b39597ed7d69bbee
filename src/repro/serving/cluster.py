"""Replica pool + router: multi-worker serving with load shedding.

The single :class:`~repro.serving.service.LinkingService` caps throughput at
one scheduler thread feeding one pipeline, and any stall freezes the whole
service.  This module scales the front door out to N workers:

* :class:`Replica` — the worker interface: submit/pending/probe plus the
  lifecycle verbs (``drain``, ``kill``) and fault hooks (``set_delay``,
  ``freeze``/``unfreeze``) the chaos tests drive.
* :class:`ThreadReplica` — a replica backed by its own scheduler thread and
  an :meth:`~repro.serving.pipeline.EntityLinkingPipeline.clone` of the
  pipeline; the heavyweight read-only state (encoder weights, the index
  snapshot) is shared across the pool.
* :class:`ProcessReplica` — the same interface backed by a worker *process*
  (fork by default); batches cross a pipe, faults and batching stay on the
  parent side, so every lifecycle/fault path behaves identically.
* :class:`ReplicaPool` — owns the replica slots and their factories:
  graceful drain, restart (a fresh clone from the shared snapshot state),
  kill, and construction straight from an on-disk index snapshot.
* :class:`Router` — the front door.  Exposes the familiar service API
  (``submit`` / ``link`` / ``close`` / ``warm_up`` / ``pending`` /
  ``peak_pending`` / ``stats``) over the pool with:

  - **world-affinity dispatch** — a mention's world hashes to a home
    replica, keeping per-world cache locality, falling back to balancing
    only when the home replica is unhealthy;
  - **least-pending balancing** — ties broken by a seeded permutation, so
    the same seed and replica count always produce the same assignment;
  - **per-class admission control** — when the aggregate pending depth
    (the live value behind the ``peak_pending`` high-watermark) crosses the
    class's watermark, the submit is *shed*: the returned future already
    holds a :class:`RejectedError`.  Shedding is explicit and immediate,
    never a timeout;
  - **automatic requeue** — a dead replica's in-flight requests fail with
    :class:`ReplicaDiedError` and the router resubmits them to healthy
    replicas; callers only see an error when every retry is exhausted.

* :class:`FaultEvent` — one scheduled replica injury (kill / slow / freeze
  / unfreeze / drain / restart) that :meth:`Router.apply_fault` performs;
  the chaos tests script them against a router under load to assert
  graceful degradation instead of collapse.

Example::

    pool = ReplicaPool.from_pipeline(pipeline, replicas=4)
    router = Router(pool, admission=AdmissionPolicy(watermark=512), seed=13)
    router.warm_up()
    future = router.submit(mention)             # routed + balanced
    result = future.result(timeout=1.0)
    router.stats.snapshot()["aggregate"]        # merged per-replica counters
    router.close()
"""

from __future__ import annotations

import hashlib
import multiprocessing
import threading
import time
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..kb.entity import Mention
from ..linking.biencoder import BiEncoder
from ..linking.crossencoder import CrossEncoder
from .pipeline import (
    DEFAULT_BATCH_SIZE,
    EntityLinkingPipeline,
    LatencyWindow,
    LinkingResult,
    PipelineStats,
)
from .service import (
    DEFAULT_MAX_WAIT_MS,
    DeadlineExpiredError,
    LinkingService,
    OverCapacityError,
    RejectedError,
    warm_up_index,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .resilience import BreakerPolicy

#: Replica lifecycle states.
HEALTHY = "healthy"
DRAINING = "draining"
STOPPED = "stopped"
DEAD = "dead"

#: Poll period of loops that must stay responsive to kill/unfreeze (seconds).
FAULT_POLL_SECONDS = 0.02

#: Recognised :class:`FaultEvent` actions.
FAULT_ACTIONS = ("kill", "slow", "freeze", "unfreeze", "drain", "restart")


class BreakerOpenError(RejectedError):
    """Every healthy replica's circuit breaker is open — dispatch refused.

    Non-retryable: the breakers exist precisely because those replicas keep
    failing, so bouncing the request between them only adds load.  Callers
    should back off and retry after the breaker cooldown.
    """


class ReplicaDiedError(RuntimeError):
    """A replica died (kill/crash) with this request outstanding.

    The router treats this error as retryable and requeues the request on a
    healthy replica; callers only observe it when no healthy replica remains
    or the retry budget is exhausted.  Contrast the non-retryable
    :class:`~repro.serving.service.RejectedError` taxonomy: "over capacity"
    (:class:`~repro.serving.service.OverCapacityError`), "too late"
    (:class:`~repro.serving.service.DeadlineExpiredError`) and "replica
    unhealthy" (:class:`BreakerOpenError`).
    """


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class FaultInjector:
    """Per-replica fault switchboard: slow-down, freeze and thaw.

    The replica's scheduler passes through :meth:`pause_point` before every
    batch.  ``freeze`` holds it there (queue depth grows, nothing completes)
    until :meth:`unfreeze` — or until the replica is aborted, so a kill
    always releases a frozen worker.  ``set_delay`` adds a per-batch sleep,
    modelling a degraded-but-alive replica the router should route around.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._resume = threading.Condition(self._lock)
        self._delay = 0.0
        self._frozen = False

    @property
    def delay(self) -> float:
        with self._lock:
            return self._delay

    @property
    def frozen(self) -> bool:
        with self._lock:
            return self._frozen

    def set_delay(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("delay must be non-negative")
        with self._lock:
            self._delay = seconds

    def freeze(self) -> None:
        with self._lock:
            self._frozen = True

    def unfreeze(self) -> None:
        with self._lock:
            self._frozen = False
            self._resume.notify_all()

    def pause_point(self, aborted: Callable[[], bool]) -> None:
        """Block while frozen, then serve the injected delay.

        ``aborted`` is polled so a killed replica escapes both the freeze
        and the delay within :data:`FAULT_POLL_SECONDS`.
        """
        with self._resume:
            while self._frozen and not aborted():
                self._resume.wait(timeout=FAULT_POLL_SECONDS)
            delay = self._delay
        if delay > 0:
            deadline = time.perf_counter() + delay
            while not aborted():
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                time.sleep(min(FAULT_POLL_SECONDS, remaining))


class _FaultableService(LinkingService):
    """A :class:`LinkingService` whose flushes pass through a fault gate."""

    def __init__(self, pipeline, faults: FaultInjector, **kwargs) -> None:
        self._faults = faults
        super().__init__(pipeline, **kwargs)

    def _flush(self, batch) -> None:
        self._faults.pause_point(lambda: self.aborted)
        super()._flush(batch)


# ----------------------------------------------------------------------
# Replicas
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaHealth:
    """One health probe: lifecycle state plus live queue/progress counters."""

    replica_id: int
    name: str
    state: str
    alive: bool
    pending: int
    processed: int
    frozen: bool
    delay: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "replica_id": self.replica_id,
            "name": self.name,
            "state": self.state,
            "alive": self.alive,
            "pending": self.pending,
            "processed": self.processed,
            "frozen": self.frozen,
            "delay": self.delay,
        }


class Replica:
    """Interface of one pool worker; see :class:`ThreadReplica` for the
    canonical implementation and :class:`ProcessReplica` for the
    process-backed one.

    A replica accepts single-mention submits (returning futures), owns its
    own dynamic micro-batching, and supports two shutdown modes: ``drain``
    (graceful — queued work completes) and ``kill`` (crash-style — every
    outstanding future fails with :class:`ReplicaDiedError` so the router
    can requeue).
    """

    replica_id: int = 0
    name: str = "replica"

    @property
    def state(self) -> str:
        raise NotImplementedError

    @property
    def pending(self) -> int:
        raise NotImplementedError

    @property
    def stats(self) -> PipelineStats:
        raise NotImplementedError

    def submit(
        self, mention: Mention, deadline_at: Optional[float] = None
    ) -> "Future[LinkingResult]":
        raise NotImplementedError

    def probe(self) -> ReplicaHealth:
        raise NotImplementedError

    def drain(self, timeout: Optional[float] = None) -> None:
        raise NotImplementedError

    def kill(self) -> int:
        raise NotImplementedError

    def set_delay(self, seconds: float) -> None:
        raise NotImplementedError

    def freeze(self) -> None:
        raise NotImplementedError

    def unfreeze(self) -> None:
        raise NotImplementedError

    def set_degraded(self, degraded: bool) -> None:
        raise NotImplementedError


class ThreadReplica(Replica):
    """A replica backed by its own scheduler thread and pipeline clone.

    Parameters
    ----------
    pipeline:
        This replica's own pipeline (typically
        :meth:`~repro.serving.pipeline.EntityLinkingPipeline.clone` of a
        shared base, so the index snapshot and encoder weights are shared
        read-only while stats and stage objects are private).
    replica_id / name:
        Slot index and display name within the pool.
    max_batch_size / max_wait_ms:
        Dynamic micro-batching knobs, as on :class:`LinkingService`.
    """

    def __init__(
        self,
        pipeline: EntityLinkingPipeline,
        replica_id: int = 0,
        name: Optional[str] = None,
        max_batch_size: Optional[int] = None,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        start: bool = True,
    ) -> None:
        self.replica_id = replica_id
        self.name = name or f"replica-{replica_id}"
        self.pipeline = pipeline
        self.faults = FaultInjector()
        self._state_lock = threading.Lock()
        self._state = HEALTHY
        self._service = _FaultableService(
            pipeline, self.faults,
            max_batch_size=max_batch_size, max_wait_ms=max_wait_ms, start=start,
        )

    # -- state ----------------------------------------------------------
    @property
    def state(self) -> str:
        with self._state_lock:
            state = self._state
        if state == HEALTHY and not self._service.running:
            # The scheduler thread died without going through drain/kill —
            # report it dead so the router stops routing here.
            with self._state_lock:
                if self._state == HEALTHY:
                    self._state = DEAD
                state = self._state
        return state

    def _set_state(self, state: str) -> None:
        with self._state_lock:
            self._state = state

    @property
    def pending(self) -> int:
        # Outstanding (queued + in-flight), so least-pending balancing sees
        # a replica that is mid-batch as busy, not idle.
        return self._service.outstanding

    @property
    def stats(self) -> PipelineStats:
        return self.pipeline.stats

    # -- request path ---------------------------------------------------
    def submit(
        self, mention: Mention, deadline_at: Optional[float] = None
    ) -> "Future[LinkingResult]":
        if self.state != HEALTHY:
            raise ReplicaDiedError(f"{self.name} is {self.state}")
        try:
            return self._service.submit(mention, deadline_at=deadline_at)
        except RejectedError:
            raise  # non-retryable by design — do not disguise as a death
        except RuntimeError as error:
            # Lost the race against a concurrent drain/kill: surface it as
            # a retryable replica error so the router re-picks.
            raise ReplicaDiedError(f"{self.name} rejected submit: {error}") from error

    # -- lifecycle ------------------------------------------------------
    def probe(self) -> ReplicaHealth:
        return ReplicaHealth(
            replica_id=self.replica_id,
            name=self.name,
            state=self.state,
            alive=self._service.running,
            pending=self.pending,
            processed=self.pipeline.stats.mentions,
            frozen=self.faults.frozen,
            delay=self.faults.delay,
        )

    def drain(self, timeout: Optional[float] = None) -> None:
        """Graceful stop: no new submits, queued requests complete."""
        self._set_state(DRAINING)
        self.faults.unfreeze()  # a frozen replica must still drain
        self._service.close(timeout=timeout)
        self._set_state(STOPPED)

    def kill(self) -> int:
        """Crash-style stop: fail all outstanding work with
        :class:`ReplicaDiedError`; returns how many requests were failed.

        The outstanding futures are failed (and requeued by the router)
        immediately; the scheduler thread is then reaped so no stray
        inference keeps running after the replica is declared dead.
        """
        self._set_state(DEAD)
        failed = self._service.abort(ReplicaDiedError(f"{self.name} was killed"))
        self._service.close(timeout=5.0)
        return failed

    # -- fault hooks ----------------------------------------------------
    def set_delay(self, seconds: float) -> None:
        self.faults.set_delay(seconds)

    def freeze(self) -> None:
        self.faults.freeze()

    def unfreeze(self) -> None:
        self.faults.unfreeze()

    # -- brownout -------------------------------------------------------
    def set_degraded(self, degraded: bool) -> None:
        """Flip this replica's pipeline into/out of brownout mode."""
        self.pipeline.set_degraded(degraded)


# ----------------------------------------------------------------------
# Process-backed replica
# ----------------------------------------------------------------------
def _process_worker_main(conn, pipeline: EntityLinkingPipeline) -> None:
    """Loop of the worker process: receive a batch, link it, send results."""
    try:
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "stop":
                break
            if kind == "degrade":
                # Fire-and-forget control message: messages are handled in
                # order, so the next batch already runs in the new mode.
                pipeline.set_degraded(message[1])
            elif kind == "batch":
                try:
                    conn.send(("results", pipeline.link(message[1])))
                except Exception as error:  # surface, do not kill the worker
                    conn.send(("error", f"{type(error).__name__}: {error}"))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away or terminated us — nothing left to serve
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _PipelineProxy:
    """Parent-side stand-in for a pipeline living in a worker process.

    Implements exactly the surface :class:`LinkingService` uses — ``link``,
    ``stats``, ``batch_size``, ``index`` — so the proxy slots into the same
    scheduler/fault machinery as an in-process pipeline.  One batch is in
    flight per worker at a time; the reply wait polls the child's liveness
    so a terminated worker turns into :class:`ReplicaDiedError` (which the
    router treats as retryable) instead of a hang.
    """

    def __init__(self, conn, batch_size: int, index) -> None:
        self._conn = conn
        self._io_lock = threading.Lock()
        self.batch_size = batch_size
        self.index = index
        self.stats = PipelineStats()
        self.process: Optional[multiprocessing.process.BaseProcess] = None

    def link(self, mentions: Sequence[Mention]) -> List[LinkingResult]:
        started = time.perf_counter()
        with self._io_lock:
            try:
                self._conn.send(("batch", list(mentions)))
                while not self._conn.poll(FAULT_POLL_SECONDS):
                    if self.process is not None and not self.process.is_alive():
                        raise ReplicaDiedError("worker process died mid-batch")
                kind, payload = self._conn.recv()
            except (EOFError, OSError, BrokenPipeError) as error:
                raise ReplicaDiedError(f"worker pipe closed: {error}") from error
        if kind == "error":
            raise RuntimeError(payload)
        self.stats.record("remote", time.perf_counter() - started)
        self.stats.record_batch(len(mentions))
        return payload

    def set_degraded(self, degraded: bool) -> None:
        # Mirrors EntityLinkingPipeline.set_degraded across the pipe.  No
        # reply: the worker loop handles messages in order, so the flip is
        # visible to the next batch; a dead worker is caught by the next
        # link() anyway, so send failures are ignored here.
        with self._io_lock:
            try:
                self._conn.send(("degrade", bool(degraded)))
            except (OSError, BrokenPipeError):
                pass


class ProcessReplica(ThreadReplica):
    """A replica whose pipeline runs in a separate worker process.

    The parent keeps the dynamic batching, fault gate and lifecycle logic of
    :class:`ThreadReplica`; only ``pipeline.link`` crosses the process
    boundary (one micro-batch per round trip).  The default ``fork`` start
    method inherits the parent's pipeline memory copy-on-write — create the
    pool (or restart a replica) while no traffic flows, as with index
    warm-up.  ``spawn`` also works when every pipeline component pickles.

    ``kill()`` additionally terminates the worker process, modelling a hard
    machine failure; ``drain()`` stops it gracefully after the queue
    flushes.
    """

    def __init__(
        self,
        pipeline: EntityLinkingPipeline,
        replica_id: int = 0,
        name: Optional[str] = None,
        max_batch_size: Optional[int] = None,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        start: bool = True,
        mp_context: str = "fork",
    ) -> None:
        context = multiprocessing.get_context(mp_context)
        parent_conn, child_conn = context.Pipe()
        proxy = _PipelineProxy(
            parent_conn, batch_size=pipeline.batch_size, index=pipeline.index
        )
        self._process = context.Process(
            target=_process_worker_main,
            args=(child_conn, pipeline),
            name=name or f"replica-{replica_id}-worker",
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        proxy.process = self._process
        super().__init__(
            proxy,  # type: ignore[arg-type] - duck-typed pipeline surface
            replica_id=replica_id,
            name=name or f"replica-{replica_id}",
            max_batch_size=max_batch_size or pipeline.batch_size,
            max_wait_ms=max_wait_ms,
            start=start,
        )

    @property
    def process_alive(self) -> bool:
        return self._process.is_alive()

    def probe(self) -> ReplicaHealth:
        health = super().probe()
        if health.state == HEALTHY and not self._process.is_alive():
            self._set_state(DEAD)
            health = super().probe()
        return health

    def drain(self, timeout: Optional[float] = None) -> None:
        super().drain(timeout=timeout)
        try:
            self.pipeline._conn.send(("stop",))
        except (OSError, BrokenPipeError):
            pass
        self._process.join(timeout=timeout or 5.0)

    def kill(self) -> int:
        # Terminate the worker BEFORE reaping the scheduler thread: the
        # scheduler may be blocked in the proxy waiting for a reply, and it
        # only bails out once it observes the process is gone.
        self._set_state(DEAD)
        failed = self._service.abort(ReplicaDiedError(f"{self.name} was killed"))
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
        self._service.close(timeout=5.0)
        return failed


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdmissionPolicy:
    """Per-class watermarks on the aggregate pending depth.

    A submit of class ``c`` is admitted while the router's aggregate pending
    count is *below* ``limit_for(c)``; at or above it, the request is shed
    with :class:`RejectedError`.  Unlisted classes use ``watermark``.  Lower
    watermarks for best-effort classes make background traffic yield first:
    ``AdmissionPolicy(watermark=512, per_class={"batch": 64})`` sheds bulk
    work at depth 64 while interactive requests ride to 512.
    """

    watermark: int = 1024
    per_class: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.watermark <= 0:
            raise ValueError("watermark must be positive")
        for request_class, limit in self.per_class.items():
            if limit <= 0:
                raise ValueError(
                    f"watermark for class {request_class!r} must be positive"
                )

    def limit_for(self, request_class: str) -> int:
        return int(self.per_class.get(request_class, self.watermark))


# ----------------------------------------------------------------------
# Fault events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultEvent:
    """One scheduled injury: at ``at`` seconds, do ``action`` to ``replica``.

    ``value`` carries the action parameter (per-batch delay seconds for
    ``slow``); it is ignored by the other actions.
    """

    at: float
    action: str
    replica: int
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("event time must be non-negative")
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; known: {', '.join(FAULT_ACTIONS)}"
            )
        if self.replica < 0:
            raise ValueError("replica index must be non-negative")
        if self.value < 0:
            raise ValueError("value must be non-negative")


# ----------------------------------------------------------------------
# Aggregated stats
# ----------------------------------------------------------------------
class ClusterStats:
    """Aggregate view over the router and every replica's pipeline stats.

    Router-level counters (submits, sheds per class, requeues, deaths) and
    the per-request latency window live here; per-replica throughput
    counters stay in each replica's :class:`PipelineStats` and are merged on
    demand from consistent :meth:`~PipelineStats.snapshot` copies.  Restarted
    replicas start fresh stats — the aggregate reflects the *current* pool
    generation, which is what capacity dashboards want.

    The recovery metric: :attr:`recovery_seconds` is the gap between the
    first replica death and the completion of the last request that had to
    be requeued because of a death — how long the cluster took to fully
    absorb the failure.
    """

    def __init__(self, pool: "ReplicaPool") -> None:
        self._pool = pool
        self._lock = threading.Lock()
        self._latency = LatencyWindow()
        self._submitted = 0
        self._completed = 0
        self._errors = 0
        self._shed: Dict[str, int] = {}
        self._requeues = 0
        self._deaths = 0
        self._affinity_misses = 0
        self._first_death_at: Optional[float] = None
        self._last_requeue_done_at: Optional[float] = None
        # Resilience bookkeeping (supervisor restarts, breaker/brownout).
        self._expired = 0
        self._breaker_rejects = 0
        self._restarts = 0
        self._mttr: List[float] = []
        self._quarantined: set = set()
        self._brownout_engagements = 0
        self._degraded_active = False
        self._degraded_since: Optional[float] = None
        self._degraded_seconds = 0.0

    # -- recording (router hot path) ------------------------------------
    def record_submit(self) -> None:
        with self._lock:
            self._submitted += 1

    def record_completed(self, latency_seconds: float, requeued: bool) -> None:
        now = time.perf_counter()
        self._latency.record(latency_seconds)
        with self._lock:
            self._completed += 1
            if requeued:
                self._last_requeue_done_at = now

    def record_error(self) -> None:
        with self._lock:
            self._errors += 1

    def record_shed(self, request_class: str) -> None:
        with self._lock:
            self._shed[request_class] = self._shed.get(request_class, 0) + 1

    def record_requeue(self) -> None:
        with self._lock:
            self._requeues += 1

    def record_death(self) -> None:
        now = time.perf_counter()
        with self._lock:
            self._deaths += 1
            if self._first_death_at is None:
                self._first_death_at = now

    def record_affinity_miss(self) -> None:
        with self._lock:
            self._affinity_misses += 1

    def record_expired(self) -> None:
        with self._lock:
            self._expired += 1

    def record_breaker_reject(self) -> None:
        with self._lock:
            self._breaker_rejects += 1

    # -- resilience recording (supervisor / brownout controller) ---------
    def record_restart(self, slot: int, mttr_seconds: float) -> None:
        """One supervisor-driven slot recovery; ``mttr_seconds`` is the gap
        between the death being detected and the fresh replica standing."""
        with self._lock:
            self._restarts += 1
            self._mttr.append(max(mttr_seconds, 0.0))
            self._quarantined.discard(slot)

    def record_quarantine(self, slot: int) -> None:
        """Mark a slot as crash-looping (idempotent — the supervisor
        re-asserts quarantines each tick so a stats reset cannot hide one)."""
        with self._lock:
            self._quarantined.add(slot)

    def record_brownout(self, active: bool) -> None:
        """Track brownout transitions and cumulative degraded wall time."""
        now = time.perf_counter()
        with self._lock:
            if active and not self._degraded_active:
                self._brownout_engagements += 1
                self._degraded_since = now
            elif not active and self._degraded_active:
                if self._degraded_since is not None:
                    self._degraded_seconds += now - self._degraded_since
                self._degraded_since = None
            self._degraded_active = active

    # -- aggregate reads -------------------------------------------------
    @property
    def submitted(self) -> int:
        with self._lock:
            return self._submitted

    @property
    def completed(self) -> int:
        with self._lock:
            return self._completed

    @property
    def shed_total(self) -> int:
        with self._lock:
            return sum(self._shed.values())

    def shed_by_class(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._shed)

    @property
    def requeued(self) -> int:
        with self._lock:
            return self._requeues

    @property
    def deaths(self) -> int:
        with self._lock:
            return self._deaths

    @property
    def recovery_seconds(self) -> Optional[float]:
        with self._lock:
            if self._first_death_at is None or self._last_requeue_done_at is None:
                return None
            return max(self._last_requeue_done_at - self._first_death_at, 0.0)

    @property
    def expired(self) -> int:
        with self._lock:
            return self._expired

    @property
    def restarts(self) -> int:
        with self._lock:
            return self._restarts

    @property
    def mttr_seconds(self) -> Tuple[float, ...]:
        """Per-incident recovery times of supervisor-driven restarts."""
        with self._lock:
            return tuple(self._mttr)

    @property
    def quarantined(self) -> Tuple[int, ...]:
        """Slots the supervisor has quarantined as crash-looping."""
        with self._lock:
            return tuple(sorted(self._quarantined))

    @property
    def brownout_engagements(self) -> int:
        with self._lock:
            return self._brownout_engagements

    @property
    def degraded_active(self) -> bool:
        with self._lock:
            return self._degraded_active

    @property
    def degraded_seconds(self) -> float:
        """Cumulative wall time spent in brownout, including a live spell."""
        now = time.perf_counter()
        with self._lock:
            total = self._degraded_seconds
            if self._degraded_active and self._degraded_since is not None:
                total += now - self._degraded_since
            return total

    @property
    def mentions(self) -> int:
        """Mentions processed across the current pool generation."""
        return sum(r.stats.snapshot()["mentions"] for r in self._pool.replicas)

    @property
    def batches(self) -> int:
        return sum(r.stats.snapshot()["batches"] for r in self._pool.replicas)

    def latency_percentile(self, percentile: float) -> float:
        """See :meth:`~repro.serving.pipeline.LatencyWindow.percentile`."""
        return self._latency.percentile(percentile)

    def latency_summary(self) -> Dict[str, float]:
        """See :meth:`~repro.serving.pipeline.LatencyWindow.summary`."""
        return self._latency.summary()

    def snapshot(self) -> Dict[str, object]:
        """One consistent report: router counters + merged replica stats."""
        per_replica = []
        total_mentions = 0
        total_batches = 0
        stage_seconds: Dict[str, float] = {}
        for replica in self._pool.replicas:
            shot = replica.stats.snapshot()
            total_mentions += shot["mentions"]
            total_batches += shot["batches"]
            for stage, seconds in shot["stage_seconds"].items():
                stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
            per_replica.append({
                "name": replica.name,
                "state": replica.state,
                "pending": replica.pending,
                "mentions": shot["mentions"],
                "batches": shot["batches"],
            })
        with self._lock:
            router = {
                "submitted": self._submitted,
                "completed": self._completed,
                "errors": self._errors,
                "shed": dict(self._shed),
                "shed_total": sum(self._shed.values()),
                "requeued": self._requeues,
                "deaths": self._deaths,
                "affinity_misses": self._affinity_misses,
                "expired": self._expired,
                "breaker_rejects": self._breaker_rejects,
            }
            resilience = {
                "restarts": self._restarts,
                "mttr_seconds": list(self._mttr),
                "mttr_max_seconds": max(self._mttr) if self._mttr else 0.0,
                "quarantined": sorted(self._quarantined),
                "brownout_engagements": self._brownout_engagements,
                "degraded_active": self._degraded_active,
            }
        resilience["degraded_seconds"] = self.degraded_seconds
        recovery = self.recovery_seconds
        if recovery is not None:
            router["recovery_seconds"] = recovery
        return {
            "router": router,
            "aggregate": {
                "mentions": total_mentions,
                "batches": total_batches,
                "stage_seconds": stage_seconds,
            },
            "latency": self.latency_summary(),
            "per_replica": per_replica,
            "resilience": resilience,
        }

    def reset(self) -> None:
        """Clear router counters and every live replica's pipeline stats."""
        self._latency.clear()
        with self._lock:
            self._submitted = 0
            self._completed = 0
            self._errors = 0
            self._shed.clear()
            self._requeues = 0
            self._deaths = 0
            self._affinity_misses = 0
            self._first_death_at = None
            self._last_requeue_done_at = None
            self._expired = 0
            self._breaker_rejects = 0
            self._restarts = 0
            self._mttr.clear()
            self._quarantined.clear()
            self._brownout_engagements = 0
            self._degraded_seconds = 0.0
            # A live brownout spell survives the reset: only the accumulated
            # time is cleared, so a measurement starting mid-brownout still
            # accounts the ongoing spell from its own start.
            if self._degraded_active:
                self._degraded_since = time.perf_counter()
        for replica in self._pool.replicas:
            replica.stats.reset()


# ----------------------------------------------------------------------
# Replica pool
# ----------------------------------------------------------------------
class ReplicaPool:
    """Fixed slots of replicas plus the factories that (re)build them.

    Every slot keeps a zero-argument factory so :meth:`restart` can stand up
    a fresh generation of the same replica — for thread replicas a new
    pipeline clone over the shared read-only index snapshot, for process
    replicas a fresh worker process.  Slot count is fixed for the pool's
    lifetime (the router's affinity hash depends on it).
    """

    def __init__(self, factories: Sequence[Callable[[], Replica]]) -> None:
        if not factories:
            raise ValueError("a pool needs at least one replica factory")
        self._factories = list(factories)
        self._lock = threading.Lock()
        self._generations = [0] * len(self._factories)
        self._replicas: List[Replica] = [factory() for factory in self._factories]

    # -- construction helpers -------------------------------------------
    @classmethod
    def from_pipeline(
        cls,
        pipeline: EntityLinkingPipeline,
        replicas: int = 2,
        max_batch_size: Optional[int] = None,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        process_replicas: int = 0,
        mp_context: str = "fork",
    ) -> "ReplicaPool":
        """A pool of clones of ``pipeline``: thread replicas, then
        ``process_replicas`` process-backed ones in the last slots.

        All clones share the pipeline's read-only index snapshot and encoder
        weights; each replica owns its stats and scheduler.
        """
        if replicas <= 0:
            raise ValueError("replicas must be positive")
        if not 0 <= process_replicas <= replicas:
            raise ValueError("process_replicas must be within [0, replicas]")

        def thread_factory(slot: int) -> Callable[[], Replica]:
            def build() -> Replica:
                return ThreadReplica(
                    pipeline.clone(), replica_id=slot,
                    max_batch_size=max_batch_size, max_wait_ms=max_wait_ms,
                )
            return build

        def process_factory(slot: int) -> Callable[[], Replica]:
            def build() -> Replica:
                return ProcessReplica(
                    pipeline.clone(), replica_id=slot,
                    max_batch_size=max_batch_size, max_wait_ms=max_wait_ms,
                    mp_context=mp_context,
                )
            return build

        threaded = replicas - process_replicas
        factories = [thread_factory(slot) for slot in range(threaded)]
        factories += [process_factory(slot) for slot in range(threaded, replicas)]
        return cls(factories)

    @classmethod
    def from_snapshot(
        cls,
        biencoder: BiEncoder,
        path,
        crossencoder: Optional[CrossEncoder] = None,
        replicas: int = 2,
        k: int = 16,
        rerank: bool = True,
        batch_size: int = DEFAULT_BATCH_SIZE,
        route_by_domain: bool = True,
        max_batch_size: Optional[int] = None,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        process_replicas: int = 0,
        mmap: bool = True,
        backend=None,
    ) -> "ReplicaPool":
        """A pool serving a persisted index snapshot (PR 2 format).

        The snapshot is loaded *once* and shared read-only by every replica
        — the restart path therefore costs a pipeline clone, not an index
        reload, exactly like a warm rolling restart in production.  With the
        default ``mmap=True`` the snapshot arrays are memory-mapped, so
        forked process replicas share the snapshot's pages instead of each
        copying the matrices.  ``backend`` (a
        :class:`repro.index.IVFBackend`) clusters exhaustive-saved shards
        into cells at load.
        """
        index = biencoder.load_sharded_index(path, mmap=mmap, backend=backend)
        base = EntityLinkingPipeline(
            biencoder, index, crossencoder, k=k, rerank=rerank,
            batch_size=batch_size, route_by_domain=route_by_domain,
        )
        return cls.from_pipeline(
            base, replicas=replicas, max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms, process_replicas=process_replicas,
        )

    # -- access ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._factories)

    @property
    def replicas(self) -> Tuple[Replica, ...]:
        with self._lock:
            return tuple(self._replicas)

    def replica(self, slot: int) -> Replica:
        with self._lock:
            return self._replicas[slot]

    def generation(self, slot: int) -> int:
        with self._lock:
            return self._generations[slot]

    def healthy_slots(self) -> List[int]:
        return [
            slot for slot, replica in enumerate(self.replicas)
            if replica.state == HEALTHY
        ]

    # -- lifecycle -------------------------------------------------------
    def kill(self, slot: int) -> int:
        return self.replica(slot).kill()

    def drain(self, slot: int, timeout: Optional[float] = None) -> None:
        self.replica(slot).drain(timeout=timeout)

    def restart(self, slot: int, timeout: Optional[float] = None) -> Replica:
        """Replace the slot's replica with a fresh generation.

        The old replica is drained first if it is still healthy (rolling
        restart); a dead/stopped one is simply replaced.
        """
        old = self.replica(slot)
        if old.state in (HEALTHY, DRAINING):
            old.drain(timeout=timeout)
        fresh = self._factories[slot]()
        with self._lock:
            self._generations[slot] += 1
            fresh.name = f"{fresh.name}@g{self._generations[slot]}"
            self._replicas[slot] = fresh
        return fresh

    def close(self, timeout: Optional[float] = None) -> None:
        for replica in self.replicas:
            if replica.state in (HEALTHY, DRAINING):
                replica.drain(timeout=timeout)

    def probe(self) -> List[ReplicaHealth]:
        return [replica.probe() for replica in self.replicas]


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
@dataclass
class _ClusterRequest:
    """Router-side bookkeeping for one admitted request."""

    mention: Mention
    caller: "Future[LinkingResult]"
    request_class: str
    submitted_at: float
    deadline_at: Optional[float] = None
    attempts: int = 0
    requeued: bool = False


def _affinity_hash(world: str) -> int:
    """Stable world → integer hash (process-independent, unlike ``hash``)."""
    return int.from_bytes(
        hashlib.sha256(world.encode("utf-8")).digest()[:8], "big"
    )


class Router:
    """Front door over a :class:`ReplicaPool`, API-compatible with
    :class:`~repro.serving.service.LinkingService`.

    Dispatch policy, in order:

    1. **Admission** — if the aggregate pending count has reached the
       class's watermark, the request is shed with :class:`RejectedError`
       (set on the returned future; nothing is queued).
    2. **World affinity** — with ``affinity=True``, the mention's world
       hashes to a home slot; if that replica is healthy it wins, keeping
       per-world shard/cache locality.  A request only leaves its home slot
       when the replica is unhealthy (counted as an affinity miss).
    3. **Least pending** — otherwise the healthy replica with the smallest
       queue wins; ties break by a permutation drawn once from ``seed``, so
       the same seed and replica count always produce the same assignment
       (see :meth:`assignment_plan` for the pure version the property tests
       assert on).

    Requests on a replica that dies fail with :class:`ReplicaDiedError` and
    are requeued automatically (bounded by ``max_attempts``); callers see an
    error only when the cluster is truly out of healthy capacity.
    """

    def __init__(
        self,
        pool: ReplicaPool,
        admission: Optional[AdmissionPolicy] = None,
        affinity: bool = True,
        seed: int = 0,
        max_attempts: Optional[int] = None,
        record_dispatch: bool = False,
        breakers: bool = True,
        breaker_policy: Optional["BreakerPolicy"] = None,
    ) -> None:
        if max_attempts is not None and max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        self.pool = pool
        self.admission = admission or AdmissionPolicy()
        self.affinity = affinity
        self.seed = seed
        self.max_attempts = max_attempts or (len(pool) + 1)
        self._lock = threading.Lock()
        self._pending = 0
        self._peak_pending = 0
        self._closing = False
        self._degraded = False
        # Seeded tie-break: rank[i] orders replicas with equal queue depth.
        permutation = np.random.default_rng(seed).permutation(len(pool))
        self._tiebreak_rank = {int(slot): rank for rank, slot in enumerate(permutation)}
        self.stats = ClusterStats(pool)
        self.dispatch_log: Optional[List[Tuple[str, int]]] = (
            [] if record_dispatch else None
        )
        # Per-slot circuit breakers: flapping replicas are routed around
        # before they fully die.  The default policy never opens on a
        # healthy replica (it needs a windowed error-rate majority), so
        # breakers are on unless explicitly disabled.
        self._breakers: Dict[int, "CircuitBreaker"] = {}
        if breakers:
            from .resilience import BreakerPolicy, CircuitBreaker  # late: cycle

            policy = breaker_policy or BreakerPolicy()
            self._breakers = {
                slot: CircuitBreaker(policy) for slot in range(len(pool))
            }
        elif breaker_policy is not None:
            raise ValueError("breaker_policy given but breakers=False")

    # ------------------------------------------------------------------
    # Dispatch policy
    # ------------------------------------------------------------------
    def home_slot(self, world: str) -> int:
        """The world's affinity slot (fixed for the pool's slot count)."""
        return _affinity_hash(world) % len(self.pool)

    def _least_pending(self, slots: Sequence[int], depths: Mapping[int, int]) -> int:
        return min(slots, key=lambda slot: (depths[slot], self._tiebreak_rank[slot]))

    def _pick_slot(self, mention: Mention) -> Optional[int]:
        """The dispatch slot for one mention, or ``None`` with no healthy
        replicas.  Raises :class:`BreakerOpenError` when healthy replicas
        exist but every breaker is open — a different failure from "dead":
        capacity is nominally there, it just keeps erroring.
        """
        healthy = self.pool.healthy_slots()
        if not healthy:
            return None
        allowed = [slot for slot in healthy if self._breaker_allows(slot)]
        if not allowed:
            self.stats.record_breaker_reject()
            raise BreakerOpenError(
                f"all {len(healthy)} healthy replica(s) have open circuit "
                f"breakers; retry after the cooldown"
            )
        if self.affinity:
            home = self.home_slot(mention.domain)
            if home in allowed:
                return home
            # Unhealthy home slot *or* a healthy one with an open breaker:
            # either way the request spills to least-pending, and the miss
            # counter records that affinity was not honoured.
            self.stats.record_affinity_miss()
        depths = {slot: self.pool.replica(slot).pending for slot in allowed}
        return self._least_pending(allowed, depths)

    def _breaker_allows(self, slot: int) -> bool:
        breaker = self._breakers.get(slot)
        return breaker is None or breaker.allows()

    def assignment_plan(self, mentions: Sequence[Mention]) -> List[int]:
        """The deterministic dispatch assignment for a mention sequence.

        A pure simulation of the live policy over an idle, fully healthy
        pool: affinity requests go to their home slot; balanced requests go
        least-pending with the seeded tie-break, each assignment deepening
        its simulated queue by one.  Two routers with equal ``seed``,
        ``affinity`` and pool size produce identical plans — the property
        the dispatch-determinism tests pin down.
        """
        slots = list(range(len(self.pool)))
        depths = {slot: 0 for slot in slots}
        plan: List[int] = []
        for mention in mentions:
            if self.affinity:
                slot = self.home_slot(mention.domain)
            else:
                slot = self._least_pending(slots, depths)
            depths[slot] += 1
            plan.append(slot)
        return plan

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(
        self,
        mention: Mention,
        request_class: str = "default",
        deadline: Optional[float] = None,
    ) -> "Future[LinkingResult]":
        """Admit, dispatch and return a future for one mention.

        Shed requests get a future that already holds
        :class:`~repro.serving.service.OverCapacityError` — callers
        distinguish "over capacity" from "slow" without waiting.  Raises
        ``RuntimeError`` after :meth:`close`.

        ``deadline`` is a *relative* budget in seconds: once it elapses the
        request is dropped with
        :class:`~repro.serving.service.DeadlineExpiredError` wherever it
        happens to be queued — at the router, awaiting requeue after a
        replica death, or in a replica's batch queue — instead of consuming
        a batch slot on an answer nobody waits for.
        """
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be non-negative")
        caller: "Future[LinkingResult]" = Future()
        submitted_at = time.perf_counter()
        deadline_at = None if deadline is None else submitted_at + deadline
        limit = self.admission.limit_for(request_class)
        with self._lock:
            if self._closing:
                raise RuntimeError("Router is closed")
            if self._pending >= limit:
                depth = self._pending
                shed = True
            else:
                shed = False
                self._pending += 1
                if self._pending > self._peak_pending:
                    self._peak_pending = self._pending
        if shed:
            self.stats.record_shed(request_class)
            caller.set_exception(OverCapacityError(
                f"request class {request_class!r} shed: aggregate pending "
                f"{depth} >= watermark {limit}"
            ))
            return caller
        self.stats.record_submit()
        request = _ClusterRequest(
            mention=mention, caller=caller, request_class=request_class,
            submitted_at=submitted_at, deadline_at=deadline_at,
        )
        self._dispatch(request)
        return caller

    def link(
        self,
        mention: Mention,
        timeout: Optional[float] = None,
        request_class: str = "default",
    ) -> LinkingResult:
        """Blocking convenience wrapper; cancels the request on timeout."""
        future = self.submit(mention, request_class=request_class)
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            future.cancel()
            raise

    def _dispatch(self, request: _ClusterRequest) -> None:
        while True:
            if (
                request.deadline_at is not None
                and time.perf_counter() >= request.deadline_at
            ):
                self.stats.record_expired()
                self._finalize(request, error=DeadlineExpiredError(
                    f"request {request.mention.mention_id} expired before "
                    f"dispatch"
                ))
                return
            if request.attempts >= self.max_attempts:
                self._finalize(request, error=ReplicaDiedError(
                    f"request {request.mention.mention_id} exhausted "
                    f"{self.max_attempts} attempts"
                ))
                return
            try:
                slot = self._pick_slot(request.mention)
            except BreakerOpenError as error:
                self._finalize(request, error=error)
                return
            if slot is None:
                self._finalize(request, error=ReplicaDiedError(
                    "no healthy replicas available"
                ))
                return
            request.attempts += 1
            replica = self.pool.replica(slot)
            try:
                inner = replica.submit(
                    request.mention, deadline_at=request.deadline_at
                )
            except ReplicaDiedError:
                continue  # lost a race with drain/kill — re-pick
            breaker = self._breakers.get(slot)
            if breaker is not None:
                breaker.on_dispatch()
            if self.dispatch_log is not None:
                self.dispatch_log.append((request.mention.mention_id, slot))
            inner.add_done_callback(
                lambda done, request=request, slot=slot: (
                    self._on_inner_done(request, slot, done)
                )
            )
            return

    def _on_inner_done(
        self, request: _ClusterRequest, slot: int,
        inner: "Future[LinkingResult]",
    ) -> None:
        breaker = self._breakers.get(slot)
        if inner.cancelled():
            self._finalize(request, cancelled=True)
            return
        error = inner.exception()
        if error is None:
            if breaker is not None:
                breaker.record_success()
            # Done-callback context: the future is settled, so this never
            # blocks (timeout=0 keeps that machine-checked).
            self._finalize(request, result=inner.result(timeout=0))
            return
        if isinstance(error, DeadlineExpiredError):
            # The replica dropped the request for being late — the replica
            # itself is fine, so the breaker sees neither success nor
            # failure, and retrying a request that is already past its
            # deadline would be wasted work.
            self.stats.record_expired()
            self._finalize(request, error=error)
            return
        if breaker is not None:
            breaker.record_failure()
        retryable = isinstance(error, ReplicaDiedError)
        if retryable and request.attempts < self.max_attempts and not self._closing:
            request.requeued = True
            self.stats.record_requeue()
            self._dispatch(request)
            return
        self._finalize(request, error=error)

    def _finalize(
        self,
        request: _ClusterRequest,
        result: Optional[LinkingResult] = None,
        error: Optional[BaseException] = None,
        cancelled: bool = False,
    ) -> None:
        with self._lock:
            self._pending -= 1
        if error is not None:
            self.stats.record_error()
        elif not cancelled:
            self.stats.record_completed(
                time.perf_counter() - request.submitted_at, request.requeued
            )
        try:
            if cancelled:
                request.caller.cancel()
            elif error is not None:
                request.caller.set_exception(error)
            else:
                request.caller.set_result(result)
        except InvalidStateError:
            pass  # caller cancelled (e.g. its own timeout) — result discarded

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests admitted but not yet completed, across the cluster."""
        with self._lock:
            return self._pending

    @property
    def peak_pending(self) -> int:
        """High-watermark of the aggregate pending count (exact)."""
        with self._lock:
            return self._peak_pending

    def reset_peak_pending(self) -> int:
        with self._lock:
            self._peak_pending = self._pending
            return self._peak_pending

    @property
    def running(self) -> bool:
        """Whether at least one replica can take traffic."""
        with self._lock:
            if self._closing:
                return False
        return bool(self.pool.healthy_slots())

    def health_check(self) -> List[ReplicaHealth]:
        """Probe every replica; silently-dead ones are killed so their
        outstanding requests requeue instead of hanging."""
        probes = []
        for replica in self.pool.replicas:
            health = replica.probe()
            if health.state == DEAD and health.pending > 0:
                replica.kill()  # idempotent; flushes outstanding into requeue
                health = replica.probe()
            probes.append(health)
        return probes

    def breaker_states(self) -> Dict[int, str]:
        """Per-slot circuit-breaker state names (empty when disabled)."""
        return {slot: breaker.state for slot, breaker in self._breakers.items()}

    def reset_breaker(self, slot: int) -> None:
        """Force one slot's breaker back to closed (fresh replica)."""
        breaker = self._breakers.get(slot)
        if breaker is not None:
            breaker.reset()

    @property
    def degraded(self) -> bool:
        """Whether the cluster is currently serving in brownout mode."""
        with self._lock:
            return self._degraded

    def set_degraded(self, degraded: bool) -> None:
        """Flip every replica between full-quality and brownout pipelines.

        Idempotent; the flag is remembered so replicas restarted later (by
        the supervisor or :meth:`restart_replica`) inherit the current mode.
        Dead replicas are skipped best-effort — they pick the mode up on
        restart.
        """
        degraded = bool(degraded)
        with self._lock:
            if self._degraded == degraded:
                return
            self._degraded = degraded
        self.stats.record_brownout(degraded)
        for replica in self.pool.replicas:
            try:
                replica.set_degraded(degraded)
            except (ReplicaDiedError, RuntimeError, OSError):
                continue  # dead/closing replica inherits the mode on restart

    def restart_replica(self, slot: int, timeout: Optional[float] = None) -> None:
        """Replace one slot with a fresh replica, resetting its breaker and
        re-applying the current brownout mode (the supervisor's repair
        primitive; also what ``apply_fault("restart")`` routes through)."""
        self.pool.restart(slot, timeout=timeout)
        self.reset_breaker(slot)
        with self._lock:
            degraded = self._degraded
        if degraded:
            try:
                self.pool.replica(slot).set_degraded(True)
            except (ReplicaDiedError, RuntimeError, OSError):
                pass  # died immediately after restart — next cycle handles it

    # ------------------------------------------------------------------
    # Lifecycle & faults
    # ------------------------------------------------------------------
    def warm_up(self, worlds: Optional[Sequence[str]] = None) -> List[str]:
        """Materialise index shards before traffic (one shared snapshot —
        warming any replica warms them all)."""
        for replica in self.pool.replicas:
            index = getattr(replica, "pipeline", None)
            if index is not None:
                return warm_up_index(replica.pipeline.index, worlds)
        return []

    def close(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: stop admitting, drain every replica."""
        with self._lock:
            self._closing = True
        self.pool.close(timeout=timeout)

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def apply_fault(self, event: FaultEvent) -> None:
        """Apply one :class:`FaultEvent` to the pool (fault-injection hook)."""
        slot = event.replica
        if not 0 <= slot < len(self.pool):
            raise ValueError(
                f"fault targets replica {slot}, pool has {len(self.pool)} slots"
            )
        if event.action == "kill":
            self.stats.record_death()
            self.pool.kill(slot)
        elif event.action == "slow":
            self.pool.replica(slot).set_delay(event.value)
        elif event.action == "freeze":
            self.pool.replica(slot).freeze()
        elif event.action == "unfreeze":
            self.pool.replica(slot).unfreeze()
        elif event.action == "drain":
            # Draining blocks until the replica's queue flushes; run it off
            # the injecting thread so its later events stay on schedule.
            threading.Thread(
                target=self.pool.drain, args=(slot,),
                name=f"drain-replica-{slot}", daemon=True,
            ).start()
        elif event.action == "restart":
            self.restart_replica(slot)
        else:  # pragma: no cover - FaultEvent validates actions
            raise ValueError(f"unknown fault action {event.action!r}")
