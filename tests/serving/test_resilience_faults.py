"""Chaos tests for the self-healing layer: real faults, wall-clock soak.

The acceptance scenario for PR 8 lives here: scripted :class:`FaultEvent`
kills hit a replica repeatedly under paced load and the run completes with
zero lost requests and **no manual** ``restart()``/``health_check()``
calls — the :class:`Supervisor` alone recovers every kill.  Also here:
crash-loop quarantine with a genuinely unrestartable slot, brownout
under real overload, and the two race conditions the ISSUE calls out
(``Router.close()`` vs. in-flight requeue, ``health_check()`` vs. a
concurrent ``pool.restart()``).  All of it sleeps through injected
faults, so the module carries the ``chaos`` marker and tier-1 skips it.
"""

import threading
import time

import pytest

from repro.data import split_domain
from repro.linking import BlinkPipeline
from repro.serving import (
    BrownoutController,
    BrownoutPolicy,
    EntityLinkingPipeline,
    FaultEvent,
    ReplicaPool,
    RestartPolicy,
    Router,
    Supervisor,
)
from repro.utils.config import BiEncoderConfig, CrossEncoderConfig, EncoderConfig

pytestmark = pytest.mark.chaos

ENC = EncoderConfig(model_dim=16, num_layers=1, num_heads=2, hidden_dim=32, max_length=32)
BI_CFG = BiEncoderConfig(encoder=ENC, epochs=1, batch_size=8, learning_rate=5e-3)
CX_CFG = CrossEncoderConfig(encoder=ENC, epochs=1, batch_size=4, num_candidates=3, learning_rate=5e-3)

RESULT_TIMEOUT = 30.0

#: Fast repair for tests: no backoff, immediate retries, generous budget.
EAGER_REPAIR = RestartPolicy(
    initial_backoff_seconds=0.0, jitter=0.0, budget=32,
    budget_window_seconds=60.0, min_uptime_seconds=0.0,
)


@pytest.fixture(scope="module")
def fault_setup(tiny_corpus, tiny_tokenizer):
    worlds = ["lego", "yugioh"]
    entities = [e for world in worlds for e in tiny_corpus.entities(world)]
    mentions = []
    for world in worlds:
        mentions.extend(
            split_domain(tiny_corpus, world, seed_size=20, dev_size=10).test[:12]
        )
    blink = BlinkPipeline(tiny_tokenizer, BI_CFG, CX_CFG)
    index = blink.biencoder.build_sharded_index(entities, lazy=False)
    pipeline = EntityLinkingPipeline(
        blink.biencoder, index, blink.crossencoder, k=4, batch_size=8
    )
    pipeline.link(mentions[:8])  # warm encoder caches
    return pipeline, mentions


def make_router(pipeline, replicas=3, **kwargs):
    pool = ReplicaPool.from_pipeline(pipeline, replicas=replicas)
    return Router(pool, seed=13, **kwargs)


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestSupervisorSoak:
    def test_repeated_kills_recover_with_zero_lost_requests(self, fault_setup):
        # The PR 8 acceptance scenario: replica 2 is killed every ~0.4s
        # while ~60 requests/s keep arriving.  Nothing in this test calls
        # restart() or health_check() — the supervisor alone repairs each
        # kill, and every submitted request must complete.
        pipeline, mentions = fault_setup
        kills = [FaultEvent(at, "kill", replica=2) for at in (0.3, 0.7, 1.1)]
        requests, rate = 90, 60.0

        with make_router(pipeline, replicas=3, affinity=False) as router:
            started = time.perf_counter()

            def inject():
                for event in kills:
                    time.sleep(max(started + event.at - time.perf_counter(), 0.0))
                    router.apply_fault(event)

            injector = threading.Thread(target=inject, daemon=True)
            with Supervisor(router, policy=EAGER_REPAIR, interval=0.02):
                injector.start()
                futures = []
                for sent in range(requests):
                    time.sleep(max(started + sent / rate - time.perf_counter(), 0.0))
                    futures.append(router.submit(mentions[sent % len(mentions)]))
                injector.join(RESULT_TIMEOUT)
                assert not injector.is_alive()
                # Zero lost: every request resolves with a result — an
                # error or a timeout here raises and fails the test.
                for future in futures:
                    assert future.result(timeout=RESULT_TIMEOUT) is not None
                # The supervisor observed and repaired each scripted kill.
                assert wait_until(
                    lambda: router.stats.snapshot()["resilience"]["restarts"] >= 3
                )
                assert wait_until(
                    lambda: len(router.pool.healthy_slots()) == 3
                ), "supervisor failed to restore the pool"
            mttr = router.stats.snapshot()["resilience"]["mttr_seconds"]
        assert len(mttr) >= 3 and max(mttr) < 5.0


class TestCrashLoopQuarantine:
    def test_unrestartable_slot_is_quarantined(self, fault_setup):
        # Kill the same replica every time it comes back: with
        # min_uptime_seconds large, every death is a crash-loop strike and
        # the slot must end up quarantined instead of restart-looping
        # forever.
        pipeline, _ = fault_setup
        policy = RestartPolicy(
            initial_backoff_seconds=0.0, jitter=0.0, budget=32,
            budget_window_seconds=60.0,
            crash_loop_threshold=2, min_uptime_seconds=60.0,
        )
        with make_router(pipeline, replicas=2, affinity=False) as router:
            with Supervisor(router, policy=policy, interval=0.02) as supervisor:
                for _ in range(3):
                    router.pool.kill(0)
                    # Either the supervisor repairs it (strike) or it
                    # quarantines and the slot stays dead.
                    wait_until(
                        lambda: router.pool.replica(0).state == "healthy"
                        or supervisor.quarantined == (0,),
                        timeout=5.0,
                    )
                    if supervisor.quarantined:
                        break
                assert wait_until(lambda: supervisor.quarantined == (0,), timeout=5.0)
                # Quarantined means *stays* dead: give the supervisor time
                # to (wrongly) change its mind, then check.
                time.sleep(0.2)
                assert router.pool.replica(0).state != "healthy"
                assert supervisor.quarantined == (0,)


class TestBrownoutUnderOverload:
    def test_brownout_engages_sheds_quality_then_restores(self, fault_setup):
        pipeline, mentions = fault_setup
        controller = BrownoutController(BrownoutPolicy(
            enter_depth=6, exit_depth=1,
            enter_sustain_seconds=0.03, exit_sustain_seconds=0.1,
        ))
        with make_router(pipeline, replicas=2, affinity=False) as router:
            for slot in range(2):
                router.pool.replica(slot).faults.set_delay(0.03)  # per-batch drag
            with Supervisor(
                router, policy=EAGER_REPAIR, interval=0.01,
                brownout=controller,
            ):
                futures = [router.submit(m) for m in mentions * 6]
                engaged = wait_until(lambda: router.degraded, timeout=10.0)
                results = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
                assert engaged, "queue pressure never engaged brownout"
                degraded = [r for r in results if r.degraded]
                assert degraded, "brownout engaged but nothing was served degraded"
                # Pressure gone: the controller must restore full quality.
                assert wait_until(lambda: not router.degraded, timeout=10.0)
                restored = router.submit(mentions[0]).result(timeout=RESULT_TIMEOUT)
                assert not restored.degraded
            snapshot = router.stats.snapshot()["resilience"]
        assert snapshot["brownout_engagements"] >= 1
        assert snapshot["degraded_seconds"] > 0.0
        assert not snapshot["degraded_active"]


class TestShutdownRaces:
    def test_close_races_inflight_requeue(self, fault_setup):
        # Kill a loaded replica (triggering a burst of requeues) at the
        # same moment the router closes.  Whatever interleaving happens,
        # every future must settle — completed, failed, or cancelled —
        # and close() must return; a hang here is the bug.
        pipeline, mentions = fault_setup
        router = make_router(pipeline, replicas=3, affinity=False)
        victim = router.pool.replica(0)
        victim.faults.freeze()
        futures = [router.submit(m) for m in mentions * 2]
        assert wait_until(lambda: victim.outstanding > 0, timeout=5.0)

        killer = threading.Thread(target=lambda: router.pool.kill(0), daemon=True)
        closer = threading.Thread(target=router.close, daemon=True)
        killer.start()
        closer.start()
        killer.join(RESULT_TIMEOUT)
        closer.join(RESULT_TIMEOUT)
        assert not closer.is_alive(), "Router.close() hung against the requeue"

        settled = 0
        for future in futures:
            try:
                future.result(timeout=RESULT_TIMEOUT)
                settled += 1
            except Exception:
                settled += 1  # failed or cancelled is still settled
        assert settled == len(futures)

    def test_health_check_races_pool_restart(self, fault_setup):
        # health_check() probes (and may kill) replicas while restart()
        # swaps the same slot's generation.  The invariant: no exception
        # escapes either side and the pool ends fully healthy.
        pipeline, mentions = fault_setup
        errors = []
        with make_router(pipeline, replicas=3, affinity=False) as router:
            stop = threading.Event()

            def prober():
                while not stop.is_set():
                    try:
                        router.health_check()
                    except Exception as error:  # pragma: no cover - the bug
                        errors.append(error)
                        return

            thread = threading.Thread(target=prober, daemon=True)
            thread.start()
            try:
                for _ in range(5):
                    router.restart_replica(1)
                    for mention in mentions[:4]:
                        router.submit(mention).result(timeout=RESULT_TIMEOUT)
            except Exception as error:
                errors.append(error)
            finally:
                stop.set()
                thread.join(5.0)
            assert errors == []
            assert len(router.pool.healthy_slots()) == 3
