"""Unit tests for the self-healing layer: breaker, restart policy,
brownout hysteresis, supervisor repair loop, and end-to-end deadlines.

Everything here is tier-1: the state machines run on fake clocks, the
supervisor is stepped manually against a scripted router, and the few
live-pipeline tests (deadlines, breaker integration, brownout quality)
use the same tiny-corpus cluster fixture as the router tests.  Scenarios
needing real injected faults and wall-clock soak live in
``test_resilience_faults.py`` under the ``chaos`` marker.
"""

import threading
import time

import pytest

from repro.data import split_domain
from repro.linking import BlinkPipeline
from repro.serving import (
    AdmissionPolicy,
    BreakerOpenError,
    BreakerPolicy,
    BrownoutController,
    BrownoutPolicy,
    CircuitBreaker,
    DeadlineExpiredError,
    EntityLinkingPipeline,
    OverCapacityError,
    RejectedError,
    ReplicaPool,
    RestartPolicy,
    Router,
    Supervisor,
)
from repro.serving.cluster import ClusterStats
from repro.serving.service import DEAD, HEALTHY
from repro.utils.config import BiEncoderConfig, CrossEncoderConfig, EncoderConfig

ENC = EncoderConfig(model_dim=16, num_layers=1, num_heads=2, hidden_dim=32, max_length=32)
BI_CFG = BiEncoderConfig(encoder=ENC, epochs=1, batch_size=8, learning_rate=5e-3)
CX_CFG = CrossEncoderConfig(encoder=ENC, epochs=1, batch_size=4, num_candidates=3, learning_rate=5e-3)

RESULT_TIMEOUT = 30.0


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestBreakerPolicy:
    @pytest.mark.parametrize("kwargs", [
        {"window": 0},
        {"min_volume": 0},
        {"min_volume": 21},  # > window
        {"error_threshold": 0.0},
        {"error_threshold": 1.5},
        {"cooldown_seconds": -1.0},
        {"half_open_max_trials": 0},
        {"half_open_successes": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BreakerPolicy(**kwargs)


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        policy = BreakerPolicy(
            window=10, min_volume=4, error_threshold=0.5,
            cooldown_seconds=1.0, half_open_max_trials=2,
            half_open_successes=2, **kwargs,
        )
        return CircuitBreaker(policy, clock=clock), clock

    def test_starts_closed_and_allows(self):
        breaker, _ = self.make()
        assert breaker.state == "closed"
        assert breaker.allows()

    def test_healthy_traffic_never_opens(self):
        breaker, _ = self.make()
        for _ in range(100):
            breaker.record_success()
        assert breaker.state == "closed"

    def test_opens_on_windowed_error_rate(self):
        breaker, _ = self.make()
        breaker.record_success()
        breaker.record_success()
        breaker.record_failure()  # 1/3 < 0.5 and volume < 4: still closed
        assert breaker.state == "closed"
        breaker.record_failure()  # 2/4 >= 0.5 at min volume: open
        assert breaker.state == "open"
        assert not breaker.allows()

    def test_below_min_volume_never_opens(self):
        breaker, _ = self.make()
        for _ in range(3):  # 3 straight failures but volume < 4
            breaker.record_failure()
        assert breaker.state == "closed"

    def test_cooldown_then_half_open_probe_budget(self):
        breaker, clock = self.make()
        for _ in range(4):
            breaker.record_failure()
        assert not breaker.allows()
        clock.advance(1.01)
        # First allows() past the cooldown flips to half-open; only
        # half_open_max_trials probes are admitted concurrently.
        assert breaker.allows()
        assert breaker.state == "half_open"
        breaker.on_dispatch()
        assert breaker.allows()
        breaker.on_dispatch()
        assert not breaker.allows()

    def test_probe_successes_close(self):
        breaker, clock = self.make()
        for _ in range(4):
            breaker.record_failure()
        clock.advance(1.01)
        for _ in range(2):
            assert breaker.allows()
            breaker.on_dispatch()
            breaker.record_success()
        assert breaker.state == "closed"
        # A fresh window: the old failures must not linger.
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_probe_failure_reopens(self):
        breaker, clock = self.make()
        for _ in range(4):
            breaker.record_failure()
        clock.advance(1.01)
        assert breaker.allows()
        breaker.on_dispatch()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allows()  # cooldown restarted at the reopen
        clock.advance(1.01)
        assert breaker.allows()

    def test_straggler_outcomes_ignored_while_open(self):
        breaker, _ = self.make()
        for _ in range(4):
            breaker.record_failure()
        breaker.record_success()  # in-flight from before the trip
        assert breaker.state == "open"

    def test_reset_closes(self):
        breaker, _ = self.make()
        for _ in range(4):
            breaker.record_failure()
        breaker.reset()
        assert breaker.state == "closed"
        assert breaker.allows()


# ----------------------------------------------------------------------
# Restart policy
# ----------------------------------------------------------------------
class TestRestartPolicy:
    @pytest.mark.parametrize("kwargs", [
        {"initial_backoff_seconds": -0.1},
        {"max_backoff_seconds": 0.01},  # < initial
        {"multiplier": 0.5},
        {"jitter": 1.5},
        {"budget": 0},
        {"budget_window_seconds": 0.0},
        {"crash_loop_threshold": 0},
        {"min_uptime_seconds": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RestartPolicy(**kwargs)

    def test_backoff_zero_strikes_is_immediate(self):
        import random
        policy = RestartPolicy()
        assert policy.backoff_for(0, random.Random(0)) == 0.0

    def test_backoff_grows_and_caps(self):
        import random
        policy = RestartPolicy(
            initial_backoff_seconds=0.1, max_backoff_seconds=1.0,
            multiplier=2.0, jitter=0.0,
        )
        rng = random.Random(0)
        delays = [policy.backoff_for(s, rng) for s in (1, 2, 3, 4, 5)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.8, 1.0])

    def test_jitter_is_seed_deterministic(self):
        import random
        policy = RestartPolicy(jitter=0.5)
        a = [policy.backoff_for(s, random.Random(7)) for s in (1, 2, 3)]
        b = [policy.backoff_for(s, random.Random(7)) for s in (1, 2, 3)]
        assert a == b
        bare = [policy.backoff_for(s, random.Random(7)) for s in (1,)]
        assert bare[0] >= policy.initial_backoff_seconds


# ----------------------------------------------------------------------
# Brownout hysteresis
# ----------------------------------------------------------------------
class TestBrownoutController:
    def make(self):
        policy = BrownoutPolicy(
            enter_depth=10, exit_depth=2,
            enter_sustain_seconds=1.0, exit_sustain_seconds=2.0,
        )
        return BrownoutController(policy)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BrownoutPolicy(enter_depth=0)
        with pytest.raises(ValueError):
            BrownoutPolicy(enter_depth=5, exit_depth=5)
        with pytest.raises(ValueError):
            BrownoutPolicy(enter_sustain_seconds=-1.0)

    def test_brief_spike_does_not_engage(self):
        controller = self.make()
        assert controller.observe(50, now=0.0) is None
        assert controller.observe(0, now=0.5) is None   # pressure cleared
        assert controller.observe(50, now=1.5) is None  # sustain restarted
        assert not controller.engaged

    def test_sustained_pressure_engages_once(self):
        controller = self.make()
        assert controller.observe(20, now=0.0) is None
        assert controller.observe(20, now=0.5) is None
        assert controller.observe(20, now=1.1) is True
        assert controller.engaged
        # Already engaged: continued pressure emits no duplicate flips.
        assert controller.observe(30, now=2.0) is None

    def test_disengages_after_sustained_calm(self):
        controller = self.make()
        controller.observe(20, now=0.0)
        assert controller.observe(20, now=1.1) is True
        assert controller.observe(1, now=2.0) is None    # calm begins
        assert controller.observe(5, now=3.0) is None    # mid-band: hold
        assert controller.observe(1, now=4.0) is None    # calm restarted
        assert controller.observe(1, now=6.1) is False
        assert not controller.engaged

    def test_mid_band_depth_keeps_current_mode(self):
        controller = self.make()
        controller.observe(20, now=0.0)
        assert controller.observe(20, now=1.1) is True
        # Depth 5 is above exit (2) but below enter (10): stay engaged
        # forever — that's the hysteresis band.
        for tick in range(10):
            assert controller.observe(5, now=2.0 + tick) is None
        assert controller.engaged


# ----------------------------------------------------------------------
# Supervisor against a scripted router
# ----------------------------------------------------------------------
class _EmptyPool:
    replicas = ()


class FakeRouter:
    """Just enough router surface for Supervisor: scripted health probes,
    restart bookkeeping, a stats sink, and a settable pending depth."""

    def __init__(self, slots=3):
        self.states = [HEALTHY] * slots
        self.stats = ClusterStats(pool=_EmptyPool())
        self.pending = 0
        self.restarted = []
        self.degraded_calls = []
        self.fail_restarts = False

    def health_check(self):
        return list(self.states)

    def restart_replica(self, slot, timeout=None):
        if self.fail_restarts:
            raise RuntimeError("restart refused")
        self.restarted.append(slot)
        self.states[slot] = HEALTHY

    def set_degraded(self, degraded):
        self.degraded_calls.append(bool(degraded))


def make_supervisor(router, clock, **kwargs):
    # A huge probe interval parks the background thread; the tests step
    # the repair loop deterministically through tick() on the fake clock.
    kwargs.setdefault("interval", 3600.0)
    kwargs.setdefault("clock", clock)
    return Supervisor(router, **kwargs)


class TestSupervisor:
    def test_restarts_dead_slot_and_records_mttr(self):
        router, clock = FakeRouter(), FakeClock()
        policy = RestartPolicy(initial_backoff_seconds=0.0, jitter=0.0)
        with make_supervisor(router, clock, policy=policy) as supervisor:
            router.states[1] = DEAD
            clock.advance(1.0)
            supervisor.tick()
        assert router.restarted == [1]
        resilience = router.stats.snapshot()["resilience"]
        assert resilience["restarts"] == 1
        assert len(resilience["mttr_seconds"]) == 1
        assert resilience["mttr_seconds"][0] >= 0.0
        assert router.states[1] == HEALTHY

    def test_healthy_pool_is_left_alone(self):
        router, clock = FakeRouter(), FakeClock()
        with make_supervisor(router, clock) as supervisor:
            for _ in range(5):
                clock.advance(1.0)
                supervisor.tick()
        assert router.restarted == []
        assert router.stats.snapshot()["resilience"]["restarts"] == 0

    def test_crash_loop_quarantines_after_threshold(self):
        router, clock = FakeRouter(), FakeClock()
        policy = RestartPolicy(
            initial_backoff_seconds=0.0, jitter=0.0,
            crash_loop_threshold=2, min_uptime_seconds=10.0,
        )
        with make_supervisor(router, clock, policy=policy) as supervisor:
            for _ in range(4):
                # The replica dies again immediately after every repair —
                # well inside min_uptime, so each death is a strike.
                router.states[0] = DEAD
                clock.advance(0.1)
                supervisor.tick()
            assert supervisor.quarantined == (0,)
            # Quarantined: no further repair attempts.
            restarts_so_far = list(router.restarted)
            router.states[0] = DEAD
            clock.advance(0.1)
            supervisor.tick()
            assert router.restarted == restarts_so_far

    def test_quarantine_reasserted_after_stats_reset(self):
        router, clock = FakeRouter(), FakeClock()
        policy = RestartPolicy(
            initial_backoff_seconds=0.0, jitter=0.0,
            crash_loop_threshold=1, min_uptime_seconds=10.0,
        )
        with make_supervisor(router, clock, policy=policy) as supervisor:
            router.states[2] = DEAD
            clock.advance(0.1)
            supervisor.tick()  # repaired once (no prior restart: 0 strikes)
            router.states[2] = DEAD
            clock.advance(0.1)
            supervisor.tick()  # died within min_uptime: quarantined
            assert supervisor.quarantined == (2,)
            router.stats.reset()  # the supervisor owns quarantines, not stats
            assert supervisor.quarantined == (2,)
            clock.advance(0.1)
            supervisor.tick()
            assert supervisor.quarantined == (2,)
            assert router.restarted == [2]

    def test_surviving_min_uptime_clears_strikes(self):
        router, clock = FakeRouter(), FakeClock()
        policy = RestartPolicy(
            initial_backoff_seconds=0.0, jitter=0.0,
            crash_loop_threshold=2, min_uptime_seconds=1.0,
        )
        with make_supervisor(router, clock, policy=policy) as supervisor:
            for _ in range(6):
                # Each generation lives well past min_uptime before dying,
                # so strikes reset every cycle and no quarantine happens.
                router.states[0] = DEAD
                clock.advance(5.0)
                supervisor.tick()
            assert supervisor.quarantined == ()
            assert len(router.restarted) == 6

    def test_restart_budget_bounds_repairs_per_window(self):
        router, clock = FakeRouter(), FakeClock()
        policy = RestartPolicy(
            initial_backoff_seconds=0.0, jitter=0.0,
            budget=2, budget_window_seconds=100.0,
            min_uptime_seconds=0.0,  # deaths are never crash-loop strikes
        )
        with make_supervisor(router, clock, policy=policy) as supervisor:
            for _ in range(5):
                router.states[0] = DEAD
                clock.advance(0.5)
                supervisor.tick()
            assert len(router.restarted) == 2  # budget exhausted
            clock.advance(200.0)  # window rolls over
            router.states[0] = DEAD
            supervisor.tick()
            assert len(router.restarted) == 3

    def test_failed_restart_counts_as_strike(self):
        router, clock = FakeRouter(), FakeClock()
        router.fail_restarts = True
        policy = RestartPolicy(
            initial_backoff_seconds=0.0, jitter=0.0, crash_loop_threshold=2,
        )
        with make_supervisor(router, clock, policy=policy) as supervisor:
            for _ in range(4):
                router.states[0] = DEAD
                clock.advance(0.1)
                supervisor.tick()
            assert supervisor.quarantined == (0,)

    def test_drives_brownout_controller(self):
        router, clock = FakeRouter(), FakeClock()
        controller = BrownoutController(BrownoutPolicy(
            enter_depth=10, exit_depth=2,
            enter_sustain_seconds=0.5, exit_sustain_seconds=0.5,
        ))
        with make_supervisor(router, clock, brownout=controller) as supervisor:
            router.pending = 50
            supervisor.tick()
            clock.advance(1.0)
            supervisor.tick()
            assert router.degraded_calls == [True]
            router.pending = 0
            supervisor.tick()
            clock.advance(1.0)
            supervisor.tick()
            assert router.degraded_calls == [True, False]

    def test_background_thread_stops_on_close(self):
        router, clock = FakeRouter(), FakeClock()
        supervisor = Supervisor(router, interval=0.01, clock=clock)
        assert supervisor.running
        supervisor.close()
        assert not supervisor.running

    def test_interval_validated(self):
        with pytest.raises(ValueError):
            Supervisor(FakeRouter(), interval=0.0)


# ----------------------------------------------------------------------
# Live-pipeline integration: deadlines, breakers, brownout quality
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def resilience_setup(tiny_corpus, tiny_tokenizer):
    worlds = ["lego", "yugioh"]
    entities = [e for world in worlds for e in tiny_corpus.entities(world)]
    mentions = []
    for world in worlds:
        mentions.extend(
            split_domain(tiny_corpus, world, seed_size=20, dev_size=10).test[:8]
        )
    blink = BlinkPipeline(tiny_tokenizer, BI_CFG, CX_CFG)
    index = blink.biencoder.build_sharded_index(entities, lazy=False)
    pipeline = EntityLinkingPipeline(
        blink.biencoder, index, blink.crossencoder, k=4, batch_size=8
    )
    pipeline.link(mentions[:8])  # warm encoder caches
    return pipeline, mentions


def make_router(pipeline, replicas=2, **kwargs):
    pool = ReplicaPool.from_pipeline(pipeline, replicas=replicas)
    return Router(pool, seed=13, **kwargs)


class TestDeadlines:
    def test_negative_deadline_rejected(self, resilience_setup):
        pipeline, mentions = resilience_setup
        with make_router(pipeline) as router:
            with pytest.raises(ValueError):
                router.submit(mentions[0], deadline=-1.0)

    def test_zero_deadline_expires_before_dispatch(self, resilience_setup):
        pipeline, mentions = resilience_setup
        with make_router(pipeline) as router:
            future = router.submit(mentions[0], deadline=0.0)
            with pytest.raises(DeadlineExpiredError):
                future.result(timeout=RESULT_TIMEOUT)
            assert router.stats.snapshot()["router"]["expired"] == 1

    def test_expiry_inside_replica_queue(self, resilience_setup):
        # Freeze both replicas so queued requests sit past their deadline;
        # on thaw they must be dropped without consuming a batch slot.
        pipeline, mentions = resilience_setup
        with make_router(pipeline, replicas=2) as router:
            for slot in range(2):
                router.pool.replica(slot).faults.freeze()
            doomed = [router.submit(m, deadline=0.05) for m in mentions[:4]]
            healthy = [router.submit(m) for m in mentions[4:8]]
            time.sleep(0.15)  # let every deadline lapse while frozen
            for slot in range(2):
                router.pool.replica(slot).faults.unfreeze()
            for future in doomed:
                with pytest.raises(DeadlineExpiredError):
                    future.result(timeout=RESULT_TIMEOUT)
            for future in healthy:
                future.result(timeout=RESULT_TIMEOUT)
        assert router.stats.snapshot()["router"]["expired"] == 4

    def test_deadline_error_is_rejected_error(self):
        assert issubclass(DeadlineExpiredError, RejectedError)
        assert issubclass(OverCapacityError, RejectedError)
        assert issubclass(BreakerOpenError, RejectedError)

    def test_shed_raises_over_capacity(self, resilience_setup):
        pipeline, mentions = resilience_setup
        with make_router(
            pipeline, replicas=2, admission=AdmissionPolicy(watermark=1),
        ) as router:
            for slot in range(2):
                router.pool.replica(slot).faults.freeze()
            admitted = router.submit(mentions[0])
            shed = router.submit(mentions[1])
            with pytest.raises(OverCapacityError):
                shed.result(timeout=0)
            for slot in range(2):
                router.pool.replica(slot).faults.unfreeze()
            admitted.result(timeout=RESULT_TIMEOUT)


class TestBreakerIntegration:
    def test_failing_replica_opens_breaker_and_affinity_spills(self, resilience_setup):
        # Affinity pins every lego mention on its home slot, so the
        # injected pipeline failure deterministically feeds that slot's
        # breaker; once it opens, affinity must spill to the healthy slot
        # (counted as misses) instead of hammering the flapping replica.
        pipeline, mentions = resilience_setup
        policy = BreakerPolicy(
            window=4, min_volume=2, error_threshold=0.5,
            cooldown_seconds=60.0,
        )
        with make_router(pipeline, replicas=2, breaker_policy=policy) as router:
            lego = [m for m in mentions if m.domain == "lego"]
            home = router.home_slot("lego")
            router.pool.replica(home).pipeline.link = _always_boom
            failures = 0
            for mention in lego * 4:
                try:
                    router.submit(mention).result(timeout=RESULT_TIMEOUT)
                except RuntimeError:
                    failures += 1
                if router.breaker_states()[home] == "open":
                    break
            assert failures >= 2
            assert router.breaker_states()[home] == "open"
            misses_at_open = router.stats.snapshot()["router"]["affinity_misses"]
            # With the breaker open, lego traffic spills and succeeds.
            for mention in lego[:4]:
                router.submit(mention).result(timeout=RESULT_TIMEOUT)
            snapshot = router.stats.snapshot()["router"]
        assert snapshot["affinity_misses"] >= misses_at_open + 4
        assert snapshot["breaker_rejects"] == 0  # a healthy slot remained

    def test_all_breakers_open_rejects_with_breaker_error(self, resilience_setup):
        pipeline, mentions = resilience_setup
        policy = BreakerPolicy(
            window=4, min_volume=2, error_threshold=0.5,
            cooldown_seconds=60.0,
        )
        with make_router(
            pipeline, replicas=1, breaker_policy=policy,
        ) as router:
            router.pool.replica(0).pipeline.link = _always_boom
            for mention in mentions:
                try:
                    router.submit(mention).result(timeout=RESULT_TIMEOUT)
                except RuntimeError:
                    pass
                if router.breaker_states()[0] == "open":
                    break
            assert router.breaker_states()[0] == "open"
            with pytest.raises(BreakerOpenError):
                router.submit(mentions[0]).result(timeout=RESULT_TIMEOUT)
        assert router.stats.snapshot()["router"]["breaker_rejects"] >= 1

    def test_restart_replica_resets_breaker(self, resilience_setup):
        pipeline, mentions = resilience_setup
        policy = BreakerPolicy(
            window=4, min_volume=2, error_threshold=0.5,
            cooldown_seconds=60.0,
        )
        with make_router(pipeline, replicas=2, breaker_policy=policy) as router:
            lego = [m for m in mentions if m.domain == "lego"]
            home = router.home_slot("lego")
            router.pool.replica(home).pipeline.link = _always_boom
            for mention in lego * 4:
                try:
                    router.submit(mention).result(timeout=RESULT_TIMEOUT)
                except RuntimeError:
                    pass
                if router.breaker_states()[home] == "open":
                    break
            assert router.breaker_states()[home] == "open"
            router.restart_replica(home)  # fresh clone, healthy link again
            assert router.breaker_states()[home] == "closed"
            for mention in lego[:4]:
                router.submit(mention).result(timeout=RESULT_TIMEOUT)


def _always_boom(mentions, **kwargs):
    raise RuntimeError("injected pipeline failure")


class TestBrownoutQuality:
    def test_pipeline_degraded_mode_flags_results(self, resilience_setup):
        pipeline, mentions = resilience_setup
        full = pipeline.link(mentions[:4])
        assert all(not r.degraded for r in full)
        pipeline.set_degraded(True)
        try:
            degraded = pipeline.link(mentions[:4])
        finally:
            pipeline.set_degraded(False)
        assert all(r.degraded for r in degraded)
        assert all(r.predicted_entity_id is not None for r in degraded)
        restored = pipeline.link(mentions[:4])
        assert all(not r.degraded for r in restored)

    def test_degraded_k_validated(self, resilience_setup):
        pipeline, _ = resilience_setup
        with pytest.raises(ValueError):
            EntityLinkingPipeline(
                pipeline.biencoder, pipeline.index, pipeline.crossencoder,
                k=4, degraded_k=0,
            )

    def test_router_set_degraded_applies_cluster_wide(self, resilience_setup):
        pipeline, mentions = resilience_setup
        with make_router(pipeline, replicas=2, affinity=False) as router:
            router.set_degraded(True)
            assert router.degraded
            results = [
                router.submit(m).result(timeout=RESULT_TIMEOUT)
                for m in mentions[:8]
            ]
            assert all(r.degraded for r in results)
            router.set_degraded(False)
            results = [
                router.submit(m).result(timeout=RESULT_TIMEOUT)
                for m in mentions[:8]
            ]
            assert all(not r.degraded for r in results)
        snapshot = router.stats.snapshot()["resilience"]
        assert snapshot["brownout_engagements"] == 1
        assert not snapshot["degraded_active"]
        assert snapshot["degraded_seconds"] > 0.0

    def test_restarted_replica_inherits_degraded_mode(self, resilience_setup):
        pipeline, mentions = resilience_setup
        with make_router(pipeline, replicas=2, affinity=False) as router:
            router.set_degraded(True)
            router.restart_replica(0)
            results = [
                router.submit(m).result(timeout=RESULT_TIMEOUT)
                for m in mentions[:8]
            ]
            assert all(r.degraded for r in results)
            router.set_degraded(False)
