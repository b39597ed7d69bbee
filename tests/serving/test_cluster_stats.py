"""Concurrent-access tests for ClusterStats.

The router records submits/completions/sheds from many dispatcher and
callback threads while each replica's scheduler mutates its own
:class:`~repro.serving.pipeline.PipelineStats`; monitoring snapshots and
between-scenario resets race all of it.  These tests mirror
``test_stats_threading.py`` one level up: every aggregate read must be an
internally consistent merge of the per-replica stats, and reset must never
corrupt in-flight recording.
"""

import threading

from repro.serving.cluster import ClusterStats
from repro.serving.pipeline import PipelineStats


class FakeReplica:
    """The minimal surface ClusterStats touches: stats + display fields."""

    def __init__(self, name):
        self.name = name
        self.state = "healthy"
        self.outstanding = 0
        self.stats = PipelineStats()


class FakePool:
    def __init__(self, size):
        self.replicas = tuple(FakeReplica(f"replica-{i}") for i in range(size))


def hammer(threads):
    errors = []

    def wrap(fn):
        def run():
            try:
                fn()
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)
        return run

    workers = [threading.Thread(target=wrap(fn)) for fn in threads]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30.0)
    assert not errors, errors


class TestClusterStatsThreading:
    def test_router_counters_race_snapshot_and_reset(self):
        pool = FakePool(3)
        stats = ClusterStats(pool)
        rounds = 2000

        def recorder():
            for i in range(rounds):
                stats.count("submitted")
                stats.record_completed(i * 1e-6, requeued=(i % 7 == 0))
                stats.count("shed", "batch")
                stats.count("requeued")

        def replica_writer(replica):
            def run():
                for _ in range(rounds):
                    replica.stats.record("embed", 1e-6)
                    replica.stats.record_batch(2)
            return run

        def reader():
            for _ in range(rounds // 10):
                shot = stats.snapshot()
                agg = shot["aggregate"]
                # Merged counters are internally consistent: mentions are
                # recorded 2-per-batch, so the merge must preserve that.
                assert agg["mentions"] == 2 * agg["batches"]
                assert shot["router"]["shed_total"] >= 0
                summary = shot["latency"]
                assert summary["p50"] <= summary["p90"] <= summary["p99"]

        def resetter():
            for _ in range(rounds // 40):
                stats.reset()

        hammer([
            recorder, recorder,
            *(replica_writer(r) for r in pool.replicas),
            reader, reader, resetter,
        ])
        # Still usable and exact after the storm settles.
        stats.reset()
        stats.count("submitted")
        stats.record_completed(0.5, requeued=False)
        pool.replicas[0].stats.record_batch(4)
        shot = stats.snapshot()
        assert shot["router"]["submitted"] == 1
        assert shot["router"]["completed"] == 1
        assert shot["aggregate"]["mentions"] == 4
        assert shot["latency"]["count"] == 1

    def test_death_and_recovery_tracking_race(self):
        pool = FakePool(2)
        stats = ClusterStats(pool)
        rounds = 2000

        def killer():
            for _ in range(rounds // 20):
                stats.count("deaths")

        def completer():
            for i in range(rounds):
                stats.record_completed(1e-6, requeued=True)

        def reader():
            for _ in range(rounds // 10):
                recovery = stats.snapshot()["router"].get("recovery_seconds")
                assert recovery is None or recovery >= 0.0

        hammer([killer, completer, reader, reader])
        router = stats.snapshot()["router"]
        assert router["deaths"] == rounds // 20
        assert router["recovery_seconds"] >= 0.0

    def test_per_replica_breakdown_matches_totals(self):
        pool = FakePool(4)
        stats = ClusterStats(pool)
        for index, replica in enumerate(pool.replicas):
            for _ in range(index + 1):
                replica.stats.record_batch(3)
        shot = stats.snapshot()
        assert [r["batches"] for r in shot["per_replica"]] == [1, 2, 3, 4]
        assert shot["aggregate"]["batches"] == 10
        assert shot["aggregate"]["mentions"] == 30
