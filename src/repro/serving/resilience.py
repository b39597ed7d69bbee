"""Self-healing for the replica cluster: supervisor, breakers, brownout.

PR 6 built the pool + router with *manual* recovery — a dead slot stayed
dead until someone called :meth:`~repro.serving.cluster.ReplicaPool.restart`,
and a flapping replica kept receiving traffic until it fully died.  This
module closes the loop:

- :class:`CircuitBreaker` — per-replica closed/open/half-open state machine
  over a windowed error rate, consulted by ``Router`` dispatch so flapping
  replicas are routed around *before* they die.
- :class:`RestartPolicy` — how aggressively the supervisor repairs slots:
  exponential backoff with seeded jitter, a restart budget per rolling
  window, and crash-loop detection that quarantines a slot that keeps
  dying right after restart.
- :class:`BrownoutController` — hysteresis over the router's aggregate
  queue depth; under sustained pressure it flips the cluster into the
  degraded pipeline (shrunken retrieval top-k, rerank off) and restores
  full quality once pressure clears.
- :class:`Supervisor` — the background thread tying it together: runs
  ``Router.health_check()`` on a timer, restarts dead slots under the
  policy, records MTTR into :class:`ClusterStats`, owns the quarantine
  set, and drives the brownout controller.

Everything takes an injectable ``clock`` so the state machines are unit
testable without sleeping.
"""

from __future__ import annotations

import collections
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Tuple

from .cluster import Router
from .service import DEAD, STOPPED

__all__ = [
    "BreakerPolicy",
    "BrownoutController",
    "BrownoutPolicy",
    "CircuitBreaker",
    "RestartPolicy",
    "Supervisor",
]

#: Breaker state names (strings, matching the replica lifecycle idiom).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Default supervisor probe period (seconds).  Small enough that MTTR is
#: dominated by replica warm-up, not detection latency.
DEFAULT_SUPERVISOR_INTERVAL = 0.05


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BreakerPolicy:
    """Tuning for one :class:`CircuitBreaker`.

    ``window`` recent outcomes are kept; once at least ``min_volume`` of
    them exist and the failure fraction reaches ``error_threshold`` the
    breaker opens.  After ``cooldown_seconds`` it admits up to
    ``half_open_max_trials`` concurrent probe requests; ``half_open_successes``
    consecutive probe successes close it again, any probe failure re-opens.
    """

    window: int = 20
    min_volume: int = 5
    error_threshold: float = 0.5
    cooldown_seconds: float = 0.25
    half_open_max_trials: int = 2
    half_open_successes: int = 2

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 1 <= self.min_volume <= self.window:
            raise ValueError("min_volume must be in [1, window]")
        if not 0.0 < self.error_threshold <= 1.0:
            raise ValueError("error_threshold must be in (0, 1]")
        if self.cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be non-negative")
        if self.half_open_max_trials < 1:
            raise ValueError("half_open_max_trials must be >= 1")
        if self.half_open_successes < 1:
            raise ValueError("half_open_successes must be >= 1")


class CircuitBreaker:
    """Closed/open/half-open breaker over a count window of outcomes.

    The router consults :meth:`allows` before dispatching to a slot and
    reports each request's fate through :meth:`record_success` /
    :meth:`record_failure`.  Deadline expiries report neither — a replica
    that drops late work is healthy.

    All transitions happen under the internal lock; ``clock`` is
    injectable so tests can drive the cooldown without sleeping.
    """

    def __init__(
        self,
        policy: Optional[BreakerPolicy] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.policy = policy or BreakerPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._outcomes: Deque[bool] = collections.deque(
            maxlen=self.policy.window
        )
        self._opened_at = 0.0
        self._half_open_inflight = 0
        self._half_open_successes = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allows(self) -> bool:
        """Whether dispatch to this slot is currently admitted.

        An open breaker past its cooldown transitions to half-open here,
        so the first caller after the cooldown becomes the probe.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._clock() - self._opened_at < self.policy.cooldown_seconds:
                    return False
                self._state = HALF_OPEN
                self._half_open_inflight = 0
                self._half_open_successes = 0
            return self._half_open_inflight < self.policy.half_open_max_trials

    def on_dispatch(self) -> None:
        """Called once per actual dispatch; counts half-open probes."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._half_open_inflight += 1

    def record_success(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._half_open_inflight = max(0, self._half_open_inflight - 1)
                self._half_open_successes += 1
                if self._half_open_successes >= self.policy.half_open_successes:
                    self._close_locked()
            elif self._state == CLOSED:
                self._outcomes.append(True)
            # OPEN: a straggler from before the trip — no new information.

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._open_locked()  # probe failed — back to cooldown
            elif self._state == CLOSED:
                self._outcomes.append(False)
                if len(self._outcomes) >= self.policy.min_volume:
                    failures = sum(1 for ok in self._outcomes if not ok)
                    if failures / len(self._outcomes) >= self.policy.error_threshold:
                        self._open_locked()

    def reset(self) -> None:
        """Force-close (the slot was just replaced with a fresh replica)."""
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        self._state = CLOSED
        self._outcomes.clear()
        self._half_open_inflight = 0
        self._half_open_successes = 0

    def _open_locked(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self._outcomes.clear()
        self._half_open_inflight = 0
        self._half_open_successes = 0


# ----------------------------------------------------------------------
# Restart policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RestartPolicy:
    """How aggressively the supervisor repairs dead slots.

    Consecutive failures of the *same* slot back off exponentially from
    ``initial_backoff_seconds`` (×``multiplier`` per strike, capped at
    ``max_backoff_seconds``, with up to ``jitter`` fractional seeded noise
    so replicas don't thunder-herd).  At most ``budget`` restarts happen
    per rolling ``budget_window_seconds`` across the whole pool.  A slot
    whose replica dies within ``min_uptime_seconds`` of standing racks up
    a crash-loop strike; ``crash_loop_threshold`` strikes quarantine it —
    no further restarts, surfaced via ``Supervisor.quarantined``.
    """

    initial_backoff_seconds: float = 0.05
    max_backoff_seconds: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    budget: int = 8
    budget_window_seconds: float = 30.0
    crash_loop_threshold: int = 3
    min_uptime_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.initial_backoff_seconds < 0:
            raise ValueError("initial_backoff_seconds must be non-negative")
        if self.max_backoff_seconds < self.initial_backoff_seconds:
            raise ValueError("max_backoff_seconds must be >= initial_backoff_seconds")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.budget_window_seconds <= 0:
            raise ValueError("budget_window_seconds must be positive")
        if self.crash_loop_threshold < 1:
            raise ValueError("crash_loop_threshold must be >= 1")
        if self.min_uptime_seconds < 0:
            raise ValueError("min_uptime_seconds must be non-negative")

    def backoff_for(self, strikes: int, rng: random.Random) -> float:
        """Delay before the next restart attempt after ``strikes``
        consecutive short-lived generations (0 strikes → no delay)."""
        if strikes <= 0:
            return 0.0
        base = self.initial_backoff_seconds * self.multiplier ** (strikes - 1)
        base = min(base, self.max_backoff_seconds)
        return base * (1.0 + self.jitter * rng.random())


# ----------------------------------------------------------------------
# Brownout controller
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BrownoutPolicy:
    """Hysteresis thresholds for degraded-mode engagement.

    Brownout engages after aggregate queue depth stays at or above
    ``enter_depth`` for ``enter_sustain_seconds``; it disengages after
    depth stays at or below ``exit_depth`` for ``exit_sustain_seconds``.
    ``exit_depth < enter_depth`` gives the hysteresis band that prevents
    flapping at the boundary.
    """

    enter_depth: int = 64
    exit_depth: int = 16
    enter_sustain_seconds: float = 0.2
    exit_sustain_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.enter_depth < 1:
            raise ValueError("enter_depth must be >= 1")
        if not 0 <= self.exit_depth < self.enter_depth:
            raise ValueError("exit_depth must be in [0, enter_depth)")
        if self.enter_sustain_seconds < 0 or self.exit_sustain_seconds < 0:
            raise ValueError("sustain durations must be non-negative")


class BrownoutController:
    """Pure decision logic: feed it depth samples, it emits mode flips.

    :meth:`observe` returns ``True`` to engage brownout, ``False`` to
    restore full quality, or ``None`` for no change.  The caller (the
    supervisor, or a test) applies the decision via
    ``Router.set_degraded``.  Stateless about wall time beyond the
    timestamps it is given, so tests drive it with a fake clock.
    """

    def __init__(self, policy: Optional[BrownoutPolicy] = None) -> None:
        self.policy = policy or BrownoutPolicy()
        self._engaged = False
        self._above_since: Optional[float] = None
        self._below_since: Optional[float] = None

    @property
    def engaged(self) -> bool:
        return self._engaged

    def observe(self, depth: int, now: float) -> Optional[bool]:
        policy = self.policy
        if not self._engaged:
            if depth >= policy.enter_depth:
                if self._above_since is None:
                    self._above_since = now
                if now - self._above_since >= policy.enter_sustain_seconds:
                    self._engaged = True
                    self._above_since = None
                    return True
            else:
                self._above_since = None
            return None
        if depth <= policy.exit_depth:
            if self._below_since is None:
                self._below_since = now
            if now - self._below_since >= policy.exit_sustain_seconds:
                self._engaged = False
                self._below_since = None
                return False
        else:
            self._below_since = None
        return None


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
class Supervisor:
    """Background repair loop: probe, restart, quarantine, brownout.

    Each tick it reads every slot's state from ``Router.health_check()``
    (which also flushes silently-dead replicas so their requests requeue),
    then restarts any ``dead``/``stopped`` slot that is off backoff, inside
    the restart budget and not quarantined.  MTTR (death detected → fresh replica
    standing) lands in ``router.stats``; quarantined slots are read from
    :attr:`quarantined`, their one owner.  With a
    :class:`BrownoutController` attached it also samples ``router.pending``
    and flips ``router.set_degraded`` on the controller's say-so.

    Use as a context manager or call :meth:`close`; the loop waits on a
    stop event with the probe interval as timeout, so shutdown is prompt
    and bounded.
    """

    def __init__(
        self,
        router: Router,
        policy: Optional[RestartPolicy] = None,
        interval: float = DEFAULT_SUPERVISOR_INTERVAL,
        brownout: Optional[BrownoutController] = None,
        seed: int = 0,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.router = router
        self.policy = policy or RestartPolicy()
        self.interval = interval
        self.brownout = brownout
        self._clock = clock
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._down_since: Dict[int, float] = {}
        self._next_attempt_at: Dict[int, float] = {}
        self._strikes: Dict[int, int] = {}
        self._restarted_at: Dict[int, float] = {}
        self._quarantined: set = set()
        self._restart_times: Deque[float] = collections.deque()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="cluster-supervisor", daemon=True
        )
        self._thread.start()

    # -- lifecycle ------------------------------------------------------
    def close(self, timeout: float = 5.0) -> None:
        """Stop the repair loop (does not close the router)."""
        self._stop.set()
        self._thread.join(timeout)

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    @property
    def running(self) -> bool:
        return self._thread.is_alive()

    @property
    def quarantined(self) -> Tuple[int, ...]:
        """Slots withdrawn from repair after crash-looping."""
        with self._lock:
            return tuple(sorted(self._quarantined))

    # -- repair loop ----------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.tick()
            except Exception:  # noqa: BLE001 - repair must outlive any tick
                # A tick racing a concurrent close/kill can throw; the
                # supervisor's job is to try again next tick, not to die.
                continue

    def tick(self) -> None:
        """One probe-and-repair cycle (public so tests can step it)."""
        now = self._clock()
        for slot, state in enumerate(self.router.health_check()):
            if state in (DEAD, STOPPED):
                self._repair(slot, now)
        if self.brownout is not None:
            decision = self.brownout.observe(self.router.pending, self._clock())
            if decision is not None:
                self.router.set_degraded(decision)

    def _repair(self, slot: int, now: float) -> None:
        policy = self.policy
        with self._lock:
            if slot in self._quarantined:
                return
            if slot not in self._down_since:
                self._down_since[slot] = now
                # Crash-loop scoring: dying this soon after our own
                # restart counts as a strike; surviving past min_uptime
                # clears the slate.
                restarted_at = self._restarted_at.get(slot)
                if (
                    restarted_at is not None
                    and now - restarted_at < policy.min_uptime_seconds
                ):
                    self._strikes[slot] = self._strikes.get(slot, 0) + 1
                else:
                    self._strikes[slot] = 0
                if self._strikes[slot] >= policy.crash_loop_threshold:
                    self._quarantined.add(slot)
                    return
                self._next_attempt_at[slot] = now + policy.backoff_for(
                    self._strikes[slot], self._rng
                )
            if now < self._next_attempt_at.get(slot, 0.0):
                return
            cutoff = now - policy.budget_window_seconds
            while self._restart_times and self._restart_times[0] < cutoff:
                self._restart_times.popleft()
            if len(self._restart_times) >= policy.budget:
                return  # budget exhausted — retry once the window rolls
        try:
            self.router.restart_replica(slot)
        except Exception:  # noqa: BLE001 - failed repair = another strike
            # The slot stays in _down_since: it IS still down, the repair
            # attempt just failed.  Keeping it marked preserves the strike
            # count across ticks (so a permanently broken slot quarantines)
            # and keeps MTTR honest from the *first* detection.
            with self._lock:
                self._strikes[slot] = self._strikes.get(slot, 0) + 1
                if self._strikes[slot] >= policy.crash_loop_threshold:
                    self._quarantined.add(slot)
                else:
                    self._next_attempt_at[slot] = self._clock() + (
                        policy.backoff_for(self._strikes[slot], self._rng)
                    )
            return
        done = self._clock()
        with self._lock:
            down_at = self._down_since.pop(slot, now)
            self._restarted_at[slot] = done
            self._restart_times.append(done)
            self._next_attempt_at.pop(slot, None)
        self.router.stats.record_restart(done - down_at)
