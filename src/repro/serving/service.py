"""Asynchronous serving frontend: dynamic micro-batching over the pipeline.

:class:`LinkingService` is the piece that turns the batched
:class:`~repro.serving.pipeline.EntityLinkingPipeline` into something a server
process can run: callers submit *individual* :class:`~repro.kb.entity.Mention`
requests and receive futures, while a background scheduler thread accumulates
the queue into dynamic micro-batches.  When to flush follows from what the
scheduler was doing, not from a timer:

* **idle** — it found the queue empty and slept for work: the first arrival
  leaves at once, as a batch of one;
* **busy** — requests queued up while the previous batch ran: a partial
  batch waits for company at most as long as that previous
  ``pipeline.link`` call took, counted from its oldest request;
* **full** — a batch leaves as soon as ``max_batch_size`` requests wait.

Per-request submit→completion latency is recorded into the pipeline's
:class:`~repro.serving.pipeline.PipelineStats` rolling window (``stats``), so
the p50/p99 serving percentiles sit next to the per-stage throughput counters.

The same object is a replica of :class:`~repro.serving.cluster.ReplicaPool`:
its lifecycle state (:data:`HEALTHY` / :data:`DRAINING` / :data:`STOPPED` /
:data:`DEAD`) is read off the scheduler's own flags, its
:class:`FaultInjector` (``faults``) is the gate every batch passes before
``pipeline.link``, and ``drain`` / ``kill`` are the pool's two shutdowns.

Example::

    service = LinkingService(pipeline, max_batch_size=64, start=False)
    service.warm_up()                      # materialise shards before traffic
    with service:                          # starts the scheduler
        future = service.submit(mention)   # non-blocking
        result = future.result(timeout=1.0)
    service.stats.latency_summary()        # p50/p90/p99 request latency

Leaving the ``with`` block (or calling :meth:`LinkingService.close`) drains
outstanding requests and joins the scheduler thread.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence

from ..kb.entity import Mention
from ..linking.candidates import ShardedEntityIndex
from .pipeline import EntityLinkingPipeline, LinkingResult, PipelineStats

#: Heartbeat of the scheduler's idle wait (seconds).  The scheduler never
#: blocks longer than this without re-checking ``_closing`` and sweeping
#: expired deadlines, so a missed wakeup (e.g. a notify lost to a frozen
#: fault-injected replica) can strand it for at most one heartbeat.
SCHEDULER_HEARTBEAT_SECONDS = 0.1

#: Lifecycle states, derived by :attr:`LinkingService.state`.
HEALTHY = "healthy"
DRAINING = "draining"
STOPPED = "stopped"
DEAD = "dead"

#: Poll period of loops that must stay responsive to kill/unfreeze (seconds).
FAULT_POLL_SECONDS = 0.02


class RejectedError(RuntimeError):
    """Base of the "request refused without being processed" taxonomy.

    Raised *through the returned future*, at classification time: a rejected
    request never occupies a batch slot and never times out.  Callers that
    only care about "was my request dropped on purpose" catch this base;
    the subclasses say why:

    * :class:`OverCapacityError` — shed by admission control (over the
      pending watermark);
    * :class:`DeadlineExpiredError` — the caller's deadline passed before
      the request reached a batch;
    * :class:`~repro.serving.cluster.BreakerOpenError` — every healthy
      replica's circuit breaker is open.
    """


class OverCapacityError(RejectedError):
    """A submit shed by admission control — the service is over its watermark.

    Set on the returned future immediately at submit time: a shed request
    never occupies a queue slot and never times out.
    """


class DeadlineExpiredError(RejectedError):
    """The request's deadline passed before it reached a batch.

    Deadline-expired requests are dropped *before* consuming a batch slot —
    nobody is waiting for the answer, so the compute is not spent.  The
    router treats this as non-retryable: requeueing a request that is
    already too late only wastes another replica's time.
    """


class ReplicaDiedError(RuntimeError):
    """A replica is closed or died (kill/crash) with this request outstanding.

    :meth:`LinkingService.submit` raises it once the service is closing or
    dead, and :meth:`LinkingService.kill` fails every outstanding future with
    it.  The router treats this error as retryable and requeues the request
    on a healthy replica; callers only observe it when no healthy replica
    remains or the retry budget is exhausted.  Contrast the non-retryable
    :class:`RejectedError` taxonomy: "over capacity"
    (:class:`OverCapacityError`), "too late" (:class:`DeadlineExpiredError`)
    and "replica unhealthy" (:class:`~repro.serving.cluster.BreakerOpenError`).
    """


class FaultInjector:
    """Per-replica fault switchboard: slow-down, freeze and thaw.

    The scheduler passes through :meth:`pause_point` before every batch.
    ``freeze`` holds it there (queue depth grows, nothing completes) until
    :meth:`unfreeze` — or until the service is aborted, so a kill always
    releases a frozen worker.  ``set_delay`` adds a per-batch sleep,
    modelling a degraded-but-alive replica the router should route around.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._resume = threading.Condition(self._lock)
        self._delay = 0.0
        self._frozen = False

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


def warm_up_index(
    index: ShardedEntityIndex, worlds: Optional[Sequence[str]] = None
) -> List[str]:
    """Materialise shards of a sharded index ahead of traffic.

    Shared by :meth:`LinkingService.warm_up` and the cluster router (whose
    replicas all serve from one read-only index snapshot, so one warm-up
    covers the whole pool).  Unknown world names raise ``ValueError`` before
    any shard is built.
    """
    if worlds is not None:
        known = index.worlds()
        unknown = sorted(set(worlds) - set(known))
        if unknown:
            raise ValueError(
                f"unknown world(s) {', '.join(map(repr, unknown))}; "
                f"known worlds: {', '.join(known)}"
            )
    warmed: List[str] = []
    for world in (index.worlds() if worlds is None else worlds):
        index.shard(world)
        warmed.append(world)
    return warmed


@dataclass
class _PendingRequest:
    """One queued mention with its caller-facing future and submit time.

    ``deadline_at`` is an absolute ``time.perf_counter()`` instant; a request
    still queued past it is failed with :class:`DeadlineExpiredError` instead
    of occupying a batch slot.
    """

    mention: Mention
    future: "Future[LinkingResult]"
    submitted_at: float
    deadline_at: Optional[float] = None

    def expired(self, now: float) -> bool:
        return self.deadline_at is not None and now >= self.deadline_at


class LinkingService:
    """Dynamic-batching frontend over an :class:`EntityLinkingPipeline`.

    One service is also one :class:`~repro.serving.cluster.ReplicaPool`
    replica: the pool sets :attr:`name` (``replica-<slot>``, ``@g<n>`` per
    restart), slows or freezes it through :attr:`faults`, reads
    :attr:`state` and :attr:`outstanding`, and stops it with :meth:`drain`
    (graceful) or :meth:`kill` (crash-style).

    Parameters
    ----------
    pipeline:
        The batched pipeline doing the actual linking work.
    max_batch_size:
        Flush as soon as this many requests are queued.  Defaults to the
        pipeline's own micro-batch size so one flush is one pipeline chunk.
        Below it, a batch leaves by the idle / busy rule of the module
        docstring, which takes no setting.
    start:
        Start the scheduler thread immediately (pass False to start manually
        via :meth:`start`, e.g. after :meth:`warm_up`).
    """

    def __init__(
        self,
        pipeline: EntityLinkingPipeline,
        max_batch_size: Optional[int] = None,
        start: bool = True,
    ) -> None:
        if max_batch_size is None:
            max_batch_size = pipeline.batch_size
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        self.pipeline = pipeline
        self.max_batch_size = max_batch_size
        self.name = "linking-service"
        self.faults = FaultInjector()

        # Run time of the last pipeline.link call: how long a partial batch
        # queued behind it may wait for company.  Written and read only by
        # the scheduler thread.
        self._batch_seconds = 0.0
        self._queue: Deque[_PendingRequest] = deque()
        self._inflight: List[_PendingRequest] = []
        self._has_deadlines = False
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._closing = False
        self._aborted = False
        self._worker: Optional[threading.Thread] = None
        if start:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the scheduler thread (idempotent while running)."""
        with self._lock:
            if self._closing:
                raise RuntimeError("cannot restart a closed LinkingService")
            if self._worker is not None and self._worker.is_alive():
                return
            self._worker = threading.Thread(
                target=self._run, name="linking-service-scheduler", daemon=True
            )
            self._worker.start()

    @property
    def running(self) -> bool:
        """Whether the scheduler thread is alive."""
        return self._worker is not None and self._worker.is_alive()

    @property
    def state(self) -> str:
        """Lifecycle state, read off the scheduler rather than stored.

        :data:`DEAD` after :meth:`abort` / :meth:`kill`, or when the
        scheduler thread is gone although :meth:`close` was never called (a
        silent death); :data:`DRAINING` while closing with the scheduler
        still flushing; :data:`STOPPED` once a closing scheduler has exited;
        :data:`HEALTHY` otherwise.
        """
        with self._lock:
            aborted, closing, worker = self._aborted, self._closing, self._worker
        if aborted:
            return DEAD
        alive = worker is not None and worker.is_alive()
        if closing:
            return DRAINING if alive else STOPPED
        if worker is not None and not alive:
            return DEAD
        return HEALTHY

    @property
    def stats(self) -> PipelineStats:
        """The pipeline's counters and request-latency window."""
        return self.pipeline.stats

    def close(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: reject new submits, drain the queue, join.

        Requests already queued at close time are still flushed and their
        futures completed; only *new* submissions are rejected.  Idempotent.
        """
        with self._lock:
            self._closing = True
            self._work_ready.notify_all()
            worker = self._worker
        if worker is not None and worker.is_alive():
            worker.join(timeout=timeout)

    def abort(self, error: Optional[BaseException] = None) -> int:
        """Crash-style shutdown: fail every outstanding request immediately.

        Unlike :meth:`close`, nothing is drained — queued *and* in-flight
        requests get ``error`` (default ``RuntimeError``) set on their
        futures right away and the scheduler thread exits at the next batch
        boundary.  :meth:`kill` uses this to model a replica dying
        mid-stream: the router sees the per-request exceptions and requeues
        the work on healthy replicas.  Returns the number of requests that
        were failed.  Idempotent; :meth:`submit` raises afterwards.
        """
        if error is None:
            error = RuntimeError("LinkingService aborted")
        with self._lock:
            self._closing = True
            self._aborted = True
            doomed = list(self._queue) + list(self._inflight)
            self._queue.clear()
            self._work_ready.notify_all()
        failed = 0
        for request in doomed:
            try:
                request.future.set_exception(error)
                failed += 1
            except InvalidStateError:
                pass  # completed or cancelled before the abort won the race
        return failed

    @property
    def aborted(self) -> bool:
        """Whether :meth:`abort` has been called (the crash-style shutdown)."""
        with self._lock:
            return self._aborted

    def drain(self, timeout: Optional[float] = None) -> None:
        """Graceful stop: thaw a frozen scheduler, then :meth:`close`."""
        self.faults.unfreeze()  # a frozen replica must still drain
        self.close(timeout=timeout)

    def kill(self) -> int:
        """Crash-style stop: fail all outstanding work with
        :class:`ReplicaDiedError`; returns how many requests were failed.

        The outstanding futures are failed (and requeued by the router)
        immediately; the scheduler thread is then reaped so no stray
        inference keeps running after the replica is declared dead.
        """
        failed = self.abort(ReplicaDiedError(f"{self.name} was killed"))
        self.close(timeout=5.0)
        return failed

    def set_degraded(self, degraded: bool) -> None:
        """Flip the pipeline into/out of brownout mode."""
        self.pipeline.set_degraded(degraded)

    def __enter__(self) -> "LinkingService":
        self.start()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(
        self, mention: Mention, deadline_at: Optional[float] = None
    ) -> "Future[LinkingResult]":
        """Enqueue one mention; returns a future resolving to its result.

        Non-blocking: the scheduler thread batches queued mentions and the
        future completes when its micro-batch has been linked.  Raises
        :class:`ReplicaDiedError` (a ``RuntimeError``) once the service is
        closed or its scheduler has died, and ``RuntimeError`` before
        :meth:`start`.

        ``deadline_at`` (absolute ``time.perf_counter()`` seconds) bounds how
        long the request may wait: if it is still queued past the deadline,
        its future fails with :class:`DeadlineExpiredError` *before* the
        request consumes a batch slot.
        """
        request = _PendingRequest(
            mention=mention, future=Future(), submitted_at=time.perf_counter(),
            deadline_at=deadline_at,
        )
        with self._lock:
            if self._closing:
                raise ReplicaDiedError(f"{self.name} is closed")
            if self._worker is None:
                raise RuntimeError(f"{self.name} is not started")
            if not self._worker.is_alive():
                raise ReplicaDiedError(f"{self.name}'s scheduler died")
            if deadline_at is not None:
                self._has_deadlines = True
            self._queue.append(request)
            # Wake the scheduler only when its state can change: the first
            # request wakes an idle scheduler, a full batch flushes
            # immediately.  Intermediate submits would only make the worker
            # wake, re-count and sleep again — per-request wakeups are the
            # dominant dynamic-batching overhead at high submission rates.
            queued = len(self._queue)
            if queued == 1 or queued >= self.max_batch_size:
                self._work_ready.notify()
        return request.future

    def link(self, mention: Mention, timeout: Optional[float] = None) -> LinkingResult:
        """Blocking convenience wrapper: submit one mention and wait.

        On timeout the request's future is *cancelled* before the error
        propagates: the entry stays queued (and counts in :attr:`pending`)
        until the scheduler pops it, but :meth:`_flush` then skips it via
        ``set_running_or_notify_cancel``, so no pipeline work is spent on
        an abandoned request.  If the flush already started (the future is
        RUNNING) the cancel is a no-op and the result is simply discarded.
        """
        future = self.submit(mention)
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            future.cancel()
            raise

    @property
    def pending(self) -> int:
        """Number of requests currently waiting in the queue."""
        with self._lock:
            return len(self._queue)

    @property
    def outstanding(self) -> int:
        """Queued plus in-flight requests (the batch being flushed).

        The router balances on this rather than :attr:`pending` — a
        replica mid-batch is busy even when its queue reads empty.
        """
        with self._lock:
            return len(self._queue) + len(self._inflight)

    # ------------------------------------------------------------------
    # Warm-up
    # ------------------------------------------------------------------
    def warm_up(self, worlds: Optional[Sequence[str]] = None) -> List[str]:
        """Materialise index shards ahead of traffic; returns warmed worlds.

        Builds (embeds) the selected shards of the pipeline's index — all of
        them by default — so the first request to each world does not pay the
        lazy embedding cost.  The index builds each world once, so warming
        a world the scheduler is searching at the same time is safe.
        """
        return warm_up_index(self.pipeline.index, worlds)

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._lock:
                # An empty queue here means the replica has nothing to do:
                # whatever arrives first leaves at once.
                idle = not self._queue
                # Sleep until there is work or a shutdown request.  The wait
                # is bounded by a heartbeat: a lost wakeup (or a notify that
                # raced a fault-injected freeze) stalls the scheduler for at
                # most one heartbeat instead of forever, so drain/close and
                # the cluster supervisor always make progress.
                while not self._queue and not self._closing:
                    self._work_ready.wait(timeout=SCHEDULER_HEARTBEAT_SECONDS)
                if not self._queue and self._closing:
                    return
                expired = self._sweep_expired_locked()
                if not self._queue:
                    self._fail_expired(expired)
                    continue
                # Work queued while the last batch ran: more is arriving than
                # one batch finishes, so a partial batch waits for company —
                # at most one batch run time from its oldest request, and
                # not at all on shutdown (drain as fast as possible).
                deadline = self._queue[0].submitted_at + self._batch_seconds
                while (
                    not idle
                    and len(self._queue) < self.max_batch_size
                    and not self._closing
                ):
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0 or not self._work_ready.wait(timeout=remaining):
                        break
                expired.extend(self._sweep_expired_locked())
                batch = [
                    self._queue.popleft()
                    for _ in range(min(self.max_batch_size, len(self._queue)))
                ]
                # Track the in-flight batch so abort() can reach requests
                # that have already left the queue.
                self._inflight = batch
            self._fail_expired(expired)
            try:
                self._flush(batch)
            finally:
                with self._lock:
                    self._inflight = []

    def _sweep_expired_locked(self) -> List[_PendingRequest]:
        # Caller holds self._lock.  Splits expired requests out of the queue;
        # their futures are failed *outside* the lock (future callbacks run
        # inline and must not re-enter the scheduler under its own lock).
        if not self._has_deadlines or not self._queue:
            return []
        now = time.perf_counter()
        if not any(request.expired(now) for request in self._queue):
            return []
        expired = [request for request in self._queue if request.expired(now)]
        survivors = [request for request in self._queue if not request.expired(now)]
        self._queue.clear()
        self._queue.extend(survivors)
        return expired

    @staticmethod
    def _fail_expired(expired: List[_PendingRequest]) -> None:
        for request in expired:
            LinkingService._settle(request.future, error=DeadlineExpiredError(
                f"request {request.mention.mention_id} expired "
                f"while queued (deadline passed before batching)"
            ))

    def _flush(self, batch: List[_PendingRequest]) -> None:
        # The fault gate runs before pipeline.link is timed, so a freeze or
        # an injected delay never becomes the next batch's wait window.
        self.faults.pause_point(lambda: self.aborted)
        # Transition each future to RUNNING; a False return means the caller
        # cancelled while queued, and after a True return cancellation is no
        # longer possible, so the set_result/set_exception below cannot race.
        # An InvalidStateError means abort() already failed the future — the
        # request is dead, skip it.
        live: List[_PendingRequest] = []
        now = time.perf_counter()
        for request in batch:
            if request.expired(now):
                # Last line of defence: the sweep runs at batch boundaries,
                # but a request can expire between being popped and flushed
                # (e.g. while a fault-injected freeze held the batch).  Drop
                # it here so no pipeline compute is spent on it.
                self._settle(request.future, error=DeadlineExpiredError(
                    f"request {request.mention.mention_id} expired "
                    f"before its batch was flushed"
                ))
                continue
            try:
                if request.future.set_running_or_notify_cancel():
                    live.append(request)
            except (InvalidStateError, RuntimeError):
                # InvalidStateError when abort() already failed the future;
                # set_running_or_notify_cancel raises a bare RuntimeError when
                # a concurrent kill() settled it between queue-pop and flush.
                # Either way the request is dead — skip it, don't let the
                # scheduler thread die.
                pass
        batch = live
        if not batch:
            return
        started = time.perf_counter()
        try:
            results = self.pipeline.link([request.mention for request in batch])
        except BaseException as error:  # propagate failures to every caller
            for request in batch:
                self._settle(request.future, error=error)
            return
        completed_at = time.perf_counter()
        # Timed after the fault gate, so a frozen replica does not stretch
        # the next window; a failed call says nothing about batch run time.
        self._batch_seconds = completed_at - started
        stats = self.pipeline.stats
        for request, result in zip(batch, results):
            stats.record_latency(completed_at - request.submitted_at)
            self._settle(request.future, result=result)

    @staticmethod
    def _settle(
        future: "Future[LinkingResult]",
        result: Optional[LinkingResult] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        # abort() can fail a RUNNING future between the pipeline call and
        # the result delivery; the abort exception wins and the late result
        # is discarded (the router has already requeued the request).
        try:
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(result)
        except InvalidStateError:
            pass
