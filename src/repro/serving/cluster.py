"""Replica pool + router: multi-worker serving with load shedding.

The single :class:`~repro.serving.service.LinkingService` caps throughput at
one scheduler thread feeding one pipeline, and any stall freezes the whole
service.  This module scales serving out to N of them:

* a replica is a :class:`~repro.serving.service.LinkingService` over an
  :meth:`~repro.serving.pipeline.EntityLinkingPipeline.clone` of the
  pipeline; the heavyweight read-only state (encoder weights, the index
  snapshot) is shared across the pool.  Its lifecycle state, its
  :class:`~repro.serving.service.FaultInjector` (``replica.faults``, where
  the chaos tests slow or freeze it) and its ``drain`` / ``kill`` live on
  the service itself.
* :class:`ReplicaPool` — owns the replica slots and the pipeline they
  clone, names each replica, and drains, restarts (a fresh clone over the
  shared snapshot state) or kills them.
* :class:`Router` — the front door over the pool.  Its own surface
  (``submit(mention, request_class, deadline)`` / ``warm_up`` / ``close`` /
  ``pending`` / ``stats``, a :class:`ClusterStats`) adds:

  - **world-affinity dispatch** — a mention's world hashes to a home
    replica, keeping per-world cache locality, falling back to balancing
    only when the home replica is unhealthy;
  - **least-pending balancing** — ties broken by a seeded permutation, so
    the same seed and replica count always produce the same assignment;
  - **per-class admission control** — when the aggregate pending depth
    crosses the class's watermark, the submit is *shed*: the returned
    future already holds a :class:`RejectedError`.  Shedding is explicit
    and immediate, never a timeout;
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
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..kb.entity import Mention
from .pipeline import EntityLinkingPipeline, LatencyWindow, LinkingResult
from .service import (
    DEAD,
    DRAINING,
    HEALTHY,
    DeadlineExpiredError,
    LinkingService,
    OverCapacityError,
    RejectedError,
    ReplicaDiedError,
    warm_up_index,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .resilience import BreakerPolicy

#: Recognised :class:`FaultEvent` actions.
FAULT_ACTIONS = ("kill", "slow", "freeze", "unfreeze", "drain", "restart")


class BreakerOpenError(RejectedError):
    """Every healthy replica's circuit breaker is open — dispatch refused.

    Non-retryable: the breakers exist precisely because those replicas keep
    failing, so bouncing the request between them only adds load.  Callers
    should back off and retry after the breaker cooldown.
    """


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
#: Counters :meth:`ClusterStats.snapshot` reports under ``"router"``, beside
#: the per-class ``shed`` counts and their ``shed_total``.
ROUTER_COUNTERS = (
    "submitted", "completed", "errors", "requeued", "deaths",
    "affinity_misses", "expired", "breaker_rejects",
)


class ClusterStats:
    """Router counters plus a merged view of every replica's pipeline stats.

    Read through :meth:`snapshot` only.  Router-level counters (one dict,
    :data:`ROUTER_COUNTERS` plus ``brownout_engagements``; sheds per
    request class) and the per-request latency window live here;
    per-replica throughput counters stay in each replica's
    :class:`~repro.serving.pipeline.PipelineStats` and are merged on demand
    from consistent :meth:`~repro.serving.pipeline.PipelineStats.snapshot`
    copies.  Restarted replicas start fresh stats — the aggregate reflects
    the *current* pool generation, which is what capacity dashboards want.

    The recovery metric: ``recovery_seconds`` is the gap between the first
    replica death and the completion of the last request that had to be
    requeued because of a death — how long the cluster took to fully absorb
    the failure.
    """

    def __init__(self, pool: "ReplicaPool") -> None:
        self._pool = pool
        self._lock = threading.Lock()
        self._latency = LatencyWindow()
        self._counts = dict.fromkeys(ROUTER_COUNTERS + ("brownout_engagements",), 0)
        self._shed: Dict[str, int] = {}
        self._first_death_at: Optional[float] = None
        self._last_requeue_done_at: Optional[float] = None
        self._mttr: List[float] = []
        self._degraded_since: Optional[float] = None
        self._degraded_seconds = 0.0

    def count(self, name: str, request_class: Optional[str] = None) -> None:
        """Add one to counter ``name``: one of :data:`ROUTER_COUNTERS`, or
        ``"shed"``, counted per ``request_class``.  The first death starts
        the recovery clock."""
        with self._lock:
            if name == "shed":
                self._shed[request_class] = self._shed.get(request_class, 0) + 1
            else:
                self._counts[name] += 1
            if name == "deaths" and self._first_death_at is None:
                self._first_death_at = time.perf_counter()

    def record_completed(self, latency_seconds: float, requeued: bool) -> None:
        now = time.perf_counter()
        self._latency.record(latency_seconds)
        with self._lock:
            self._counts["completed"] += 1
            if requeued:
                self._last_requeue_done_at = now

    def record_restart(self, mttr_seconds: float) -> None:
        """One supervisor-driven slot recovery; ``mttr_seconds`` is the gap
        between the death being detected and the fresh replica standing."""
        with self._lock:
            self._mttr.append(max(mttr_seconds, 0.0))

    def record_brownout(self, active: bool) -> None:
        """Track brownout transitions and cumulative degraded wall time."""
        now = time.perf_counter()
        with self._lock:
            if active and self._degraded_since is None:
                self._counts["brownout_engagements"] += 1
                self._degraded_since = now
            elif not active and self._degraded_since is not None:
                self._degraded_seconds += now - self._degraded_since
                self._degraded_since = None

    def snapshot(self) -> Dict[str, object]:
        """One consistent report: router counters + merged replica stats."""
        per_replica = []
        stage_seconds: Dict[str, float] = {}
        for replica in self._pool.replicas:
            shot = replica.stats.snapshot()
            for stage, seconds in shot["stage_seconds"].items():
                stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
            per_replica.append({
                "name": replica.name,
                "state": replica.state,
                "pending": replica.outstanding,
                "mentions": shot["mentions"],
                "batches": shot["batches"],
            })
        now = time.perf_counter()
        with self._lock:
            router: Dict[str, object] = {
                name: self._counts[name] for name in ROUTER_COUNTERS
            }
            router["shed"] = dict(self._shed)
            router["shed_total"] = sum(self._shed.values())
            if self._first_death_at is not None and self._last_requeue_done_at is not None:
                router["recovery_seconds"] = max(
                    self._last_requeue_done_at - self._first_death_at, 0.0
                )
            degraded_seconds = self._degraded_seconds
            if self._degraded_since is not None:
                degraded_seconds += now - self._degraded_since
            resilience = {
                "restarts": len(self._mttr),
                "mttr_seconds": list(self._mttr),
                "mttr_max_seconds": max(self._mttr, default=0.0),
                "brownout_engagements": self._counts["brownout_engagements"],
                "degraded_active": self._degraded_since is not None,
                "degraded_seconds": degraded_seconds,
            }
        return {
            "router": router,
            "aggregate": {
                "mentions": sum(shot["mentions"] for shot in per_replica),
                "batches": sum(shot["batches"] for shot in per_replica),
                "stage_seconds": stage_seconds,
            },
            "latency": self._latency.summary(),
            "per_replica": per_replica,
            "resilience": resilience,
        }

    def reset(self) -> None:
        """Clear router counters and every live replica's pipeline stats."""
        self._latency.clear()
        with self._lock:
            self._counts = dict.fromkeys(self._counts, 0)
            self._shed = {}
            self._first_death_at = None
            self._last_requeue_done_at = None
            self._mttr = []
            self._degraded_seconds = 0.0
            # A live brownout spell survives the reset: only the accumulated
            # time is cleared, so a measurement starting mid-brownout still
            # accounts the ongoing spell from its own start.
            if self._degraded_since is not None:
                self._degraded_since = time.perf_counter()
        for replica in self._pool.replicas:
            replica.stats.reset()


# ----------------------------------------------------------------------
# Replica pool
# ----------------------------------------------------------------------
class ReplicaPool:
    """Fixed slots of :class:`LinkingService` replicas over one pipeline.

    Every slot serves a :meth:`~EntityLinkingPipeline.clone` of the pipeline
    the pool was built from, so :meth:`restart` stands up a fresh generation
    of a slot the same way: a new clone over the shared read-only index
    snapshot and encoder weights.  The pool names each replica
    ``replica-<slot>``, suffixed ``@g<n>`` after the slot's n-th restart.
    Slot count is fixed for the pool's lifetime (the router's affinity hash
    depends on it).
    """

    def __init__(self, pipeline: EntityLinkingPipeline, replicas: int = 2) -> None:
        if replicas <= 0:
            raise ValueError("replicas must be positive")
        self._pipeline = pipeline
        self._lock = threading.Lock()
        self._generations = [0] * replicas
        self._replicas: List[LinkingService] = [
            LinkingService(pipeline.clone()) for _ in range(replicas)
        ]
        for slot, replica in enumerate(self._replicas):
            replica.name = f"replica-{slot}"

    @classmethod
    def from_pipeline(
        cls, pipeline: EntityLinkingPipeline, replicas: int = 2
    ) -> "ReplicaPool":
        """A pool of ``replicas`` clones of ``pipeline``.

        All clones share the pipeline's read-only index and encoder weights;
        each replica owns its stats and scheduler.  To serve a persisted
        snapshot, build ``pipeline`` over
        ``biencoder.load_sharded_index(path, mmap=True)``: the pool loads the
        snapshot once, its pages are read on first touch, and a restart
        clones the pipeline rather than reloading the snapshot.
        """
        return cls(pipeline, replicas=replicas)

    # -- access ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._generations)

    @property
    def replicas(self) -> Tuple[LinkingService, ...]:
        with self._lock:
            return tuple(self._replicas)

    def replica(self, slot: int) -> LinkingService:
        with self._lock:
            return self._replicas[slot]

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

    def restart(self, slot: int, timeout: Optional[float] = None) -> LinkingService:
        """Replace the slot's replica with a fresh generation.

        The old replica is drained first if it is still healthy (rolling
        restart); a dead/stopped one is simply replaced.
        """
        old = self.replica(slot)
        if old.state in (HEALTHY, DRAINING):
            old.drain(timeout=timeout)
        fresh = LinkingService(self._pipeline.clone())
        with self._lock:
            self._generations[slot] += 1
            fresh.name = f"replica-{slot}@g{self._generations[slot]}"
            self._replicas[slot] = fresh
        return fresh

    def close(self, timeout: Optional[float] = None) -> None:
        for replica in self.replicas:
            if replica.state in (HEALTHY, DRAINING):
                replica.drain(timeout=timeout)


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
    """Front door over a :class:`ReplicaPool`.

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

    Every slot has a circuit breaker built from ``breaker_policy``: a
    flapping replica is routed around before it fully dies.  The default
    policy never opens on a healthy replica (it needs a windowed error-rate
    majority).
    """

    def __init__(
        self,
        pool: ReplicaPool,
        admission: Optional[AdmissionPolicy] = None,
        affinity: bool = True,
        seed: int = 0,
        max_attempts: Optional[int] = None,
        breaker_policy: Optional["BreakerPolicy"] = None,
    ) -> None:
        from .resilience import CircuitBreaker  # late: resilience imports us

        if max_attempts is not None and max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        self.pool = pool
        self.admission = admission or AdmissionPolicy()
        self.affinity = affinity
        self.seed = seed
        self.max_attempts = max_attempts or (len(pool) + 1)
        self._lock = threading.Lock()
        self._pending = 0
        self._closing = False
        self._degraded = False
        # Names of the replicas whose death is already counted; a name is
        # unique per slot and generation (``replica-0@g2``).
        self._dead: set = set()
        # Seeded tie-break: rank[i] orders replicas with equal queue depth.
        permutation = np.random.default_rng(seed).permutation(len(pool))
        self._tiebreak_rank = {int(slot): rank for rank, slot in enumerate(permutation)}
        self.stats = ClusterStats(pool)
        self._breakers = [CircuitBreaker(breaker_policy) for _ in range(len(pool))]

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
        allowed = [slot for slot in healthy if self._breakers[slot].allows()]
        if not allowed:
            self.stats.count("breaker_rejects")
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
            self.stats.count("affinity_misses")
        depths = {slot: self.pool.replica(slot).outstanding for slot in allowed}
        return self._least_pending(allowed, depths)

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
        if shed:
            self.stats.count("shed", request_class)
            caller.set_exception(OverCapacityError(
                f"request class {request_class!r} shed: aggregate pending "
                f"{depth} >= watermark {limit}"
            ))
            return caller
        self.stats.count("submitted")
        request = _ClusterRequest(
            mention=mention, caller=caller, request_class=request_class,
            submitted_at=submitted_at, deadline_at=deadline_at,
        )
        self._dispatch(request)
        return caller

    def _dispatch(self, request: _ClusterRequest) -> None:
        while True:
            if (
                request.deadline_at is not None
                and time.perf_counter() >= request.deadline_at
            ):
                self.stats.count("expired")
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
            self._breakers[slot].on_dispatch()
            inner.add_done_callback(
                lambda done, request=request, slot=slot, replica=replica: (
                    self._on_inner_done(request, slot, replica, done)
                )
            )
            return

    def _on_inner_done(
        self, request: _ClusterRequest, slot: int, replica: LinkingService,
        inner: "Future[LinkingResult]",
    ) -> None:
        breaker = self._breakers[slot]
        if inner.cancelled():
            self._finalize(request, cancelled=True)
            return
        error = inner.exception()
        if error is None:
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
            self.stats.count("expired")
            self._finalize(request, error=error)
            return
        breaker.record_failure()
        retryable = isinstance(error, ReplicaDiedError)
        if retryable:
            self._record_death(replica)
        if retryable and request.attempts < self.max_attempts and not self._closing:
            request.requeued = True
            self.stats.count("requeued")
            self._dispatch(request)
            return
        self._finalize(request, error=error)

    def _record_death(self, replica: LinkingService) -> None:
        """Count a replica's death the first time the router sees it."""
        with self._lock:
            if replica.name in self._dead:
                return
            self._dead.add(replica.name)
        self.stats.count("deaths")

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
            self.stats.count("errors")
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
    def running(self) -> bool:
        """Whether at least one replica can take traffic."""
        with self._lock:
            if self._closing:
                return False
        return bool(self.pool.healthy_slots())

    def health_check(self) -> List[str]:
        """Every slot's lifecycle state; silently-dead replicas are killed
        so their outstanding requests requeue instead of hanging."""
        states = []
        for replica in self.pool.replicas:
            state = replica.state
            if state == DEAD:
                self._record_death(replica)
                if replica.outstanding > 0:
                    replica.kill()  # idempotent; flushes outstanding into requeue
            states.append(state)
        return states

    def breaker_states(self) -> Dict[int, str]:
        """Per-slot circuit-breaker state names."""
        return {slot: breaker.state for slot, breaker in enumerate(self._breakers)}

    def reset_breaker(self, slot: int) -> None:
        """Force one slot's breaker back to closed (fresh replica)."""
        self._breakers[slot].reset()

    @property
    def degraded(self) -> bool:
        """Whether the cluster is currently serving in brownout mode."""
        with self._lock:
            return self._degraded

    def set_degraded(self, degraded: bool) -> None:
        """Flip every replica between full-quality and brownout pipelines.

        Idempotent; the flag is remembered so replicas restarted later (by
        the supervisor or :meth:`restart_replica`) inherit the current mode.
        The flip is one attribute write per replica pipeline, so it reaches
        dead replicas too and cannot fail.
        """
        degraded = bool(degraded)
        with self._lock:
            if self._degraded == degraded:
                return
            self._degraded = degraded
        self.stats.record_brownout(degraded)
        for replica in self.pool.replicas:
            replica.set_degraded(degraded)

    def restart_replica(self, slot: int, timeout: Optional[float] = None) -> None:
        """Replace one slot with a fresh replica, resetting its breaker and
        re-applying the current brownout mode (the supervisor's repair
        primitive; also what ``apply_fault("restart")`` routes through)."""
        self.pool.restart(slot, timeout=timeout)
        self.reset_breaker(slot)
        with self._lock:
            degraded = self._degraded
        if degraded:
            self.pool.replica(slot).set_degraded(True)

    # ------------------------------------------------------------------
    # Lifecycle & faults
    # ------------------------------------------------------------------
    def warm_up(self, worlds: Optional[Sequence[str]] = None) -> List[str]:
        """Materialise index shards before traffic (one shared snapshot —
        warming any replica warms them all)."""
        return warm_up_index(self.pool.replica(0).pipeline.index, worlds)

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
        replica = self.pool.replica(slot)
        if event.action == "kill":
            self._record_death(replica)
            replica.kill()
        elif event.action == "slow":
            replica.faults.set_delay(event.value)
        elif event.action == "freeze":
            replica.faults.freeze()
        elif event.action == "unfreeze":
            replica.faults.unfreeze()
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
