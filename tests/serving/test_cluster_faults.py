"""Fault-injection tests for the replica pool and router.

Each test injures the cluster while traffic is in flight and asserts the
router degrades the way the design promises: kills requeue (no request is
ever lost), slow replicas get routed around, sheds stop once the backlog
drains, and drain races with concurrent submits resolve without dropping
anything.  The whole module carries the ``chaos`` marker — the tests sleep
through injected delays and freezes, so tier-1 skips them
(``pytest -m chaos tests/serving`` runs them explicitly).
"""

import threading
import time

import pytest

from repro.data import split_domain
from repro.linking import BlinkPipeline
from repro.serving import (
    AdmissionPolicy,
    EntityLinkingPipeline,
    FaultEvent,
    RejectedError,
    ReplicaPool,
    Router,
)
from repro.utils.config import BiEncoderConfig, CrossEncoderConfig, EncoderConfig

pytestmark = pytest.mark.chaos

ENC = EncoderConfig(model_dim=16, num_layers=1, num_heads=2, hidden_dim=32, max_length=32)
BI_CFG = BiEncoderConfig(encoder=ENC, epochs=1, batch_size=8, learning_rate=5e-3)
CX_CFG = CrossEncoderConfig(encoder=ENC, epochs=1, batch_size=4, num_candidates=3, learning_rate=5e-3)

RESULT_TIMEOUT = 30.0


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


class TestKillReplica:
    def test_kill_mid_stream_requeues_all_requests(self, fault_setup):
        # Freeze one replica so it accumulates a queue plus an in-flight
        # batch, kill it, and require every one of its requests to complete
        # on the survivors — the zero-lost-requests invariant.
        pipeline, mentions = fault_setup
        with make_router(pipeline, replicas=3, affinity=False) as router:
            victim = router.pool.replica(0)
            victim.faults.freeze()
            futures = [router.submit(m) for m in mentions * 2]
            for _ in range(200):  # wait until the victim owns some requests
                if victim.outstanding > 0:
                    break
                time.sleep(0.01)
            assert victim.outstanding > 0
            router.apply_fault(FaultEvent(at=0.0, action="kill", replica=0))
            results = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
        assert len(results) == len(mentions) * 2
        snapshot = router.stats.snapshot()["router"]
        assert snapshot["errors"] == 0
        assert snapshot["deaths"] == 1
        assert snapshot["requeued"] > 0
        assert snapshot.get("recovery_seconds") is not None

    def test_restart_brings_fresh_generation_back(self, fault_setup):
        pipeline, mentions = fault_setup
        with make_router(pipeline, replicas=2, affinity=False) as router:
            router.pool.kill(0)
            fresh = router.pool.restart(0)
            assert fresh.state == "healthy"
            assert "@g1" in fresh.name
            futures = [router.submit(m) for m in mentions]
            for future in futures:
                future.result(timeout=RESULT_TIMEOUT)
            # The fresh generation actually takes traffic again.
            assert router.pool.healthy_slots() == [0, 1]


class TestSlowReplica:
    def test_router_routes_around_slow_replica(self, fault_setup):
        # Give replica 0 a hefty per-batch delay, then send traffic in
        # waves: the healthy replicas drain between waves while the slow
        # one keeps a backlog, so least-pending steers later waves away.
        pipeline, mentions = fault_setup
        with make_router(pipeline, replicas=3, affinity=False) as router:
            router.apply_fault(FaultEvent(at=0.0, action="slow", replica=0, value=0.4))
            futures = []
            for _ in range(4):
                futures.extend(router.submit(m) for m in mentions[:9])
                time.sleep(0.25)
            results = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
            assert len(results) == 36
            shot = {
                r["name"]: r["mentions"]
                for r in router.stats.snapshot()["per_replica"]
            }
        assert shot["replica-0"] < shot["replica-1"]
        assert shot["replica-0"] < shot["replica-2"]

    def test_frozen_replica_backlog_drains_after_thaw(self, fault_setup):
        pipeline, mentions = fault_setup
        with make_router(pipeline, replicas=2, affinity=False) as router:
            router.pool.replica(0).faults.freeze()
            futures = [router.submit(m) for m in mentions]
            time.sleep(0.1)
            router.pool.replica(0).faults.unfreeze()
            results = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
        assert len(results) == len(mentions)


class TestShedThenRecover:
    def test_rejections_stop_once_pending_drains(self, fault_setup):
        pipeline, mentions = fault_setup
        router = make_router(
            pipeline, replicas=2, affinity=False,
            admission=AdmissionPolicy(watermark=4),
        )
        try:
            for replica in router.pool.replicas:
                replica.faults.freeze()
            admitted = [router.submit(m) for m in mentions[:4]]
            overflow = [router.submit(m) for m in mentions[4:10]]
            for future in overflow:
                with pytest.raises(RejectedError):
                    future.result(timeout=0)
            assert router.stats.snapshot()["router"]["shed_total"] == 6
            # Thaw and let the admitted backlog drain completely.
            for replica in router.pool.replicas:
                replica.faults.unfreeze()
            for future in admitted:
                future.result(timeout=RESULT_TIMEOUT)
            assert router.pending == 0
            # Recovery: traffic fitting under the watermark is admitted
            # again — the shed counter stays where the overflow left it.
            retry = [router.submit(m) for m in mentions[4:8]]
            for future in retry:
                future.result(timeout=RESULT_TIMEOUT)
            assert router.stats.snapshot()["router"]["shed_total"] == 6  # unchanged
        finally:
            router.close()


class TestDrainDuringSubmit:
    def test_drain_races_concurrent_submits_without_loss(self, fault_setup):
        # One thread drains replica 0 while the main thread keeps
        # submitting; every submit must either complete on a healthy
        # replica (requeued if it raced onto the draining one) — none may
        # be dropped or stuck.
        pipeline, mentions = fault_setup
        with make_router(pipeline, replicas=3, affinity=False) as router:
            futures = [router.submit(m) for m in mentions]
            drainer = threading.Thread(
                target=router.pool.drain, args=(0,), daemon=True
            )
            drainer.start()
            for _ in range(3):
                futures.extend(router.submit(m) for m in mentions)
            drainer.join(timeout=RESULT_TIMEOUT)
            assert not drainer.is_alive()
            results = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
        assert len(results) == len(mentions) * 4
        assert router.pool.replica(0).state == "stopped"
        assert router.stats.snapshot()["router"]["errors"] == 0

    def test_harness_style_health_check_recovers_silent_death(self, fault_setup):
        # A replica whose scheduler thread dies without going through
        # kill() is detected by health_check, and its stranded requests are
        # requeued rather than left hanging.
        pipeline, mentions = fault_setup
        with make_router(pipeline, replicas=2, affinity=False) as router:
            victim = router.pool.replica(0)
            victim.faults.freeze()
            futures = [router.submit(m) for m in mentions]
            for _ in range(200):
                if victim.outstanding > 0:
                    break
                time.sleep(0.01)
            # Simulate a silent crash: the scheduler thread is gone without
            # close() or abort(), leaving the queued requests stranded on a
            # replica that reads dead.
            ghost = threading.Thread(target=lambda: None)
            ghost.start()
            ghost.join()
            victim._worker = ghost
            assert "dead" in router.health_check()
            victim.faults.unfreeze()
            results = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
        assert len(results) == len(mentions)
