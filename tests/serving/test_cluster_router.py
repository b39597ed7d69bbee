"""Router dispatch properties: determinism, affinity, balancing, admission.

These tests pin down the contract the cluster benchmark and the chaos suite
rely on: the same seed and pool size always yield the same dispatch
assignment, world-affinity traffic never leaves its home shard while the
home replica is healthy, and admission control sheds with an *immediate*
:class:`~repro.serving.cluster.RejectedError` — never a timeout.
"""

import sys
import threading

import pytest

from repro.data import split_domain
from repro.linking import BlinkPipeline
from repro.serving import (
    AdmissionPolicy,
    EntityLinkingPipeline,
    FaultEvent,
    RejectedError,
    ReplicaPool,
    RestartPolicy,
    Router,
    Supervisor,
)
from repro.serving.service import warm_up_index
from repro.utils.config import BiEncoderConfig, CrossEncoderConfig, EncoderConfig

ENC = EncoderConfig(model_dim=16, num_layers=1, num_heads=2, hidden_dim=32, max_length=32)
BI_CFG = BiEncoderConfig(encoder=ENC, epochs=1, batch_size=8, learning_rate=5e-3)
CX_CFG = CrossEncoderConfig(encoder=ENC, epochs=1, batch_size=4, num_candidates=3, learning_rate=5e-3)

RESULT_TIMEOUT = 30.0


@pytest.fixture(scope="module")
def cluster_setup(tiny_corpus, tiny_tokenizer):
    worlds = ["lego", "yugioh", "star_trek"]
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
    return pipeline, mentions


def make_router(pipeline, replicas=3, **kwargs):
    pool = ReplicaPool.from_pipeline(pipeline, replicas=replicas)
    return Router(pool, **kwargs)


def log_dispatches(router):
    """``{mention_id: slot}`` filled by a wrapper around each replica's submit."""
    log = {}
    for slot, replica in enumerate(router.pool.replicas):
        def submit(mention, *args, _submit=replica.submit, _slot=slot, **kwargs):
            log[mention.mention_id] = _slot
            return _submit(mention, *args, **kwargs)
        replica.submit = submit
    return log


class TestDispatchDeterminism:
    def test_same_seed_same_replica_count_identical_assignment(self, cluster_setup):
        pipeline, mentions = cluster_setup
        with make_router(pipeline, replicas=3, seed=13, affinity=False) as a, \
                make_router(pipeline, replicas=3, seed=13, affinity=False) as b:
            assert a.assignment_plan(mentions) == b.assignment_plan(mentions)

    def test_different_seed_changes_tiebreak_order(self, cluster_setup):
        # The seeded permutation decides who wins depth ties; with every
        # queue empty the first assignment is purely the tie-break, so two
        # seeds with different permutations must produce different plans.
        pipeline, mentions = cluster_setup
        with make_router(pipeline, replicas=4, seed=0, affinity=False) as a, \
                make_router(pipeline, replicas=4, seed=3, affinity=False) as b:
            plans = a.assignment_plan(mentions), b.assignment_plan(mentions)
        assert plans[0] != plans[1]

    def test_affinity_plan_is_seed_independent(self, cluster_setup):
        # World affinity hashes the domain, so the assignment ignores the
        # balancing seed entirely while every replica is healthy.
        pipeline, mentions = cluster_setup
        with make_router(pipeline, replicas=3, seed=1) as a, \
                make_router(pipeline, replicas=3, seed=99) as b:
            assert a.assignment_plan(mentions) == b.assignment_plan(mentions)

    def test_live_dispatch_matches_plan(self, cluster_setup):
        pipeline, mentions = cluster_setup
        with make_router(pipeline, replicas=3, seed=13) as router:
            log = log_dispatches(router)
            plan = router.assignment_plan(mentions)
            futures = [router.submit(m) for m in mentions]
            for future in futures:
                future.result(timeout=RESULT_TIMEOUT)
        assert [log[m.mention_id] for m in mentions] == plan


class TestWorldAffinity:
    def test_affinity_never_crosses_shards(self, cluster_setup):
        pipeline, mentions = cluster_setup
        with make_router(pipeline, replicas=3, seed=13) as router:
            dispatched = log_dispatches(router)
            futures = [router.submit(m) for m in mentions]
            for future in futures:
                future.result(timeout=RESULT_TIMEOUT)
            homes = {m.mention_id: router.home_slot(m.domain) for m in mentions}
        assert dispatched == homes
        assert router.stats.snapshot()["router"]["affinity_misses"] == 0

    def test_home_slot_is_stable_per_world(self, cluster_setup):
        pipeline, _ = cluster_setup
        with make_router(pipeline, replicas=3) as router:
            first = {w: router.home_slot(w) for w in ("lego", "yugioh", "star_trek")}
            again = {w: router.home_slot(w) for w in ("lego", "yugioh", "star_trek")}
        assert first == again
        assert all(0 <= slot < 3 for slot in first.values())

    def test_balancing_splits_evenly_without_affinity(self, cluster_setup):
        pipeline, mentions = cluster_setup
        with make_router(pipeline, replicas=3, seed=13, affinity=False) as router:
            plan = router.assignment_plan(mentions[:12])
        assert sorted(plan.count(slot) for slot in range(3)) == [4, 4, 4]


class TestAdmissionControl:
    def test_shed_is_immediate_rejected_future(self, cluster_setup):
        pipeline, mentions = cluster_setup
        router = make_router(
            pipeline, replicas=2, admission=AdmissionPolicy(watermark=2)
        )
        try:
            # Freeze both replicas so admitted requests cannot drain.
            for replica in router.pool.replicas:
                replica.faults.freeze()
            admitted = [router.submit(m) for m in mentions[:2]]
            shed = router.submit(mentions[2])
            assert shed.done()  # rejected at submit time, no waiting
            with pytest.raises(RejectedError):
                shed.result(timeout=0)
            assert router.stats.snapshot()["router"]["shed"] == {"default": 1}
            for replica in router.pool.replicas:
                replica.faults.unfreeze()
            for future in admitted:
                future.result(timeout=RESULT_TIMEOUT)
        finally:
            router.close()

    def test_per_class_watermarks(self, cluster_setup):
        pipeline, mentions = cluster_setup
        policy = AdmissionPolicy(watermark=8, per_class={"batch": 1})
        router = make_router(pipeline, replicas=2, admission=policy)
        try:
            for replica in router.pool.replicas:
                replica.faults.freeze()
            keep = router.submit(mentions[0], request_class="batch")
            bulk = router.submit(mentions[1], request_class="batch")
            interactive = router.submit(mentions[2])
            with pytest.raises(RejectedError):
                bulk.result(timeout=0)
            assert not interactive.done()  # admitted under the higher limit
            for replica in router.pool.replicas:
                replica.faults.unfreeze()
            keep.result(timeout=RESULT_TIMEOUT)
            interactive.result(timeout=RESULT_TIMEOUT)
        finally:
            router.close()

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(watermark=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(watermark=4, per_class={"x": -1})
        assert AdmissionPolicy(watermark=4, per_class={"x": 2}).limit_for("x") == 2
        assert AdmissionPolicy(watermark=4).limit_for("anything") == 4


class TestFaultEventValidation:
    def test_invalid_events_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(at=-1.0, action="kill", replica=0)
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, action="explode", replica=0)
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, action="slow", replica=0, value=-0.1)

    def test_fault_outside_pool_rejected(self, cluster_setup):
        pipeline, _ = cluster_setup
        with make_router(pipeline, replicas=2) as router:
            with pytest.raises(ValueError):
                router.apply_fault(FaultEvent(at=0.0, action="kill", replica=5))


class TestRouterServiceSurface:
    def test_results_match_batch_pipeline(self, cluster_setup):
        pipeline, mentions = cluster_setup
        expected = {
            r.mention_id: r.predicted_entity_id for r in pipeline.link(mentions)
        }
        with make_router(pipeline, replicas=3, seed=13) as router:
            futures = [router.submit(m) for m in mentions]
            results = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
        assert {r.mention_id: r.predicted_entity_id for r in results} == expected

    def test_warm_up_validates_worlds(self, cluster_setup):
        pipeline, _ = cluster_setup
        with make_router(pipeline, replicas=2) as router:
            assert set(router.warm_up(["lego"])) == {"lego"}
            with pytest.raises(ValueError):
                router.warm_up(["atlantis"])

    def test_warm_up_index_helper_matches_service_warm_up(self, cluster_setup):
        pipeline, _ = cluster_setup
        warmed = warm_up_index(pipeline.index)
        assert "lego" in warmed and "yugioh" in warmed

    def test_closed_router_rejects_submit(self, cluster_setup):
        pipeline, mentions = cluster_setup
        router = make_router(pipeline, replicas=2)
        router.close()
        assert not router.running
        with pytest.raises(RuntimeError):
            router.submit(mentions[0])

    def test_surface_read_by_the_benchmark(self, cluster_setup):
        # The names perf/layers.py and perf/stack.py read off a live router;
        # renaming one breaks the benchmark, so it fails here first.  perf/
        # also wraps each replica's submit and pipeline.link on the instance
        # (perf/trace.py); a dispatch that went around either would leave
        # its queue-wait and batch-size metrics silently empty.
        pipeline, mentions = cluster_setup
        submitted, linked = [], []

        def wrap(owner, attr, log, ids):
            original = getattr(owner, attr)

            def traced(*args, **kwargs):
                log.extend(ids(*args))
                return original(*args, **kwargs)
            setattr(owner, attr, traced)

        with Router(ReplicaPool.from_pipeline(pipeline, replicas=2)) as router:
            replicas = router.pool.replicas
            for replica in replicas:
                wrap(replica, "submit", submitted, lambda mention: [mention.mention_id])
                wrap(replica.pipeline, "link", linked, lambda batch: [m.mention_id for m in batch])
            for future in [router.submit(m) for m in mentions]:
                future.result(timeout=RESULT_TIMEOUT)
            snapshot = router.stats.snapshot()
        assert {"submitted", "shed_total", "requeued", "affinity_misses"} <= set(
            snapshot["router"]
        )
        assert len(snapshot["per_replica"]) == 2
        assert all("mentions" in shot for shot in snapshot["per_replica"])
        assert all(replica.pipeline.stages for replica in replicas)
        assert len(submitted) == len(mentions)
        assert sorted(linked) == sorted(m.mention_id for m in mentions)


def kill_by_fault(router):
    router.apply_fault(FaultEvent(at=0.0, action="kill", replica=0))


def kill_through_pool(router):
    router.pool.kill(0)


def die_silently(replica):
    """The scheduler thread is gone, yet neither close() nor abort() ran."""
    ghost = threading.Thread(target=lambda: None)
    ghost.start()
    ghost.join()
    replica._worker = ghost


def die_silently_then_probe(router):
    die_silently(router.pool.replica(0))
    router.health_check()


class TestDeathAccounting:
    @pytest.mark.parametrize(
        "die", [kill_by_fault, kill_through_pool, die_silently_then_probe],
        ids=["apply_fault", "pool_kill", "health_check"],
    )
    def test_each_death_counts_once(self, cluster_setup, die):
        pipeline, mentions = cluster_setup
        with make_router(pipeline, replicas=2, affinity=False) as router:
            victim = router.pool.replica(0)
            victim.faults.freeze()
            futures = [router.submit(m) for m in mentions]
            stranded = victim.outstanding
            assert stranded > 0
            die(router)
            for future in futures:
                future.result(timeout=RESULT_TIMEOUT)
            router.health_check()  # a second look at the same dead generation
            counters = router.stats.snapshot()["router"]
        assert counters["deaths"] == 1
        assert counters["requeued"] == stranded
        assert counters.get("recovery_seconds") is not None

    def test_concurrent_probes_count_one_death(self, cluster_setup):
        pipeline, _ = cluster_setup
        with make_router(pipeline, replicas=2) as router:
            router.pool.kill(0)
            probers = [threading.Thread(target=router.health_check) for _ in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for prober in probers:
                    prober.start()
                for prober in probers:
                    prober.join(timeout=RESULT_TIMEOUT)
            finally:
                sys.setswitchinterval(interval)
            assert not any(prober.is_alive() for prober in probers)
            assert router.stats.snapshot()["router"]["deaths"] == 1


def top_k(results):
    """Top-k ids per result, and every retrieval and rerank score in order."""
    ids = [(r.mention_id, r.candidate_ids, r.predicted_entity_id) for r in results]
    return ids, [s for r in results for s in r.retrieval_scores + r.rerank_scores]


class TestSnapshotPool:
    def test_snapshot_pool_serves_the_pipeline_links(
        self, cluster_setup, tmp_path, monkeypatch,
    ):
        pipeline, mentions = cluster_setup
        pipeline.index.save(tmp_path / "kb")
        expected_ids, expected_scores = top_k(pipeline.link(mentions))
        served = EntityLinkingPipeline(
            pipeline.biencoder,
            pipeline.biencoder.load_sharded_index(tmp_path / "kb", mmap=True),
            pipeline.crossencoder, k=pipeline.k, batch_size=pipeline.batch_size,
            route_by_domain=pipeline.route_by_domain,
        )
        pool = ReplicaPool.from_pipeline(served, replicas=2)

        def assert_serves_expected(router):
            ids, scores = top_k([
                router.submit(m).result(timeout=RESULT_TIMEOUT) for m in mentions
            ])
            assert ids == expected_ids
            assert scores == pytest.approx(expected_scores, rel=0, abs=1e-12)

        def reload(*args, **kwargs):
            raise AssertionError("restart reloaded the snapshot")

        with Router(pool, seed=13) as router:
            index = pool.replica(0).pipeline.index
            assert pool.replica(1).pipeline.index is index
            assert_serves_expected(router)
            monkeypatch.setattr(type(pipeline.biencoder), "load_sharded_index", reload)
            router.restart_replica(0)
            assert pool.replica(0).pipeline.index is index
            assert_serves_expected(router)


class TestSilentWorkerDeath:
    def test_supervisor_restarts_a_worker_killed_outside_kill(self, cluster_setup):
        # A crash takes the scheduler thread down without kill() or close():
        # the replica must still read DEAD so one supervisor tick restarts it.
        pipeline, mentions = cluster_setup
        pool = ReplicaPool.from_pipeline(pipeline, replicas=2)
        with Router(pool, seed=13, affinity=False) as router:
            victim = pool.replica(1)
            die_silently(victim)
            assert victim.state == "dead"
            policy = RestartPolicy(
                initial_backoff_seconds=0.0, jitter=0.0, min_uptime_seconds=0.0
            )
            with Supervisor(router, policy=policy, interval=3600.0) as supervisor:
                supervisor.tick()
            fresh = pool.replica(1)
            assert fresh.state == "healthy" and "@g1" in fresh.name
            for future in [router.submit(m) for m in mentions]:
                future.result(timeout=RESULT_TIMEOUT)
        victim.close()  # stop the orphaned scheduler the swap left running
        assert router.stats.snapshot()["router"]["deaths"] == 1
