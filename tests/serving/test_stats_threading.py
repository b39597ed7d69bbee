"""Concurrent-access tests for PipelineStats and the shared latency window.

A monitoring caller resets the stats between measurements from its own
thread while the service scheduler thread keeps recording stage times and
request latencies — every counter mutation must be atomic against a
concurrent ``reset()``.  Without the internal locks these tests trip "deque
mutated during iteration" in the percentile reads or lose stage-seconds
updates.
"""

import threading

import numpy as np
import pytest

from repro.serving.cluster import ClusterStats
from repro.serving.pipeline import PipelineStats


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


class TestPipelineStatsThreading:
    def test_record_latency_races_summary_and_reset(self):
        stats = PipelineStats()
        rounds = 3000

        def writer():
            for i in range(rounds):
                stats.record_latency(i * 1e-6)

        def reader():
            for _ in range(rounds // 10):
                summary = stats.latency_summary()
                assert summary["count"] >= 0
                stats.latency_percentile(99.0)

        def resetter():
            for _ in range(rounds // 30):
                stats.reset()

        hammer([writer, writer, reader, reader, resetter])
        # Still usable afterwards and internally consistent.
        stats.reset()
        stats.record_latency(0.5)
        assert stats.latency_summary()["count"] == 1

    def test_stage_recording_races_reset_and_throughput(self):
        stats = PipelineStats()
        rounds = 3000

        def writer():
            for _ in range(rounds):
                stats.record("embed", 1e-6)
                stats.record_batch(4)

        def reader():
            for _ in range(rounds // 10):
                stats.throughput()
                _ = stats.total_seconds

        def resetter():
            for _ in range(rounds // 30):
                stats.reset()

        hammer([writer, writer, reader, resetter])
        stats.reset()
        stats.record("embed", 2.0)
        stats.record_batch(10)
        assert stats.total_seconds == pytest.approx(2.0)
        assert stats.throughput() == pytest.approx(5.0)
        assert stats.mentions == 10 and stats.batches == 1

    def test_latency_window_reads_are_atomic_snapshots(self):
        # Percentile reads iterate the rolling deque; without the lock a
        # concurrent append raises "deque mutated during iteration".  Keep a
        # writer appending flat out while a reader takes many snapshots.
        stats = PipelineStats()
        stop = threading.Event()

        def writer():
            value = 0
            while not stop.is_set():
                value += 1
                stats.record_latency(value * 1e-6)

        worker = threading.Thread(target=writer)
        worker.start()
        try:
            for _ in range(500):
                summary = stats.latency_summary()
                # Any snapshot is internally ordered even mid-append.
                assert summary["p50"] <= summary["p90"] <= summary["p99"]
        finally:
            stop.set()
            worker.join(timeout=30.0)
        assert stats.latency_summary()["count"] > 0


class _EmptyPool:
    replicas = ()


def _pipeline_owner():
    stats = PipelineStats()
    return stats, stats.record_latency, stats.latency_summary


def _cluster_owner():
    stats = ClusterStats(_EmptyPool())
    return (
        stats,
        lambda seconds: stats.record_completed(seconds, requeued=False),
        lambda: stats.snapshot()["latency"],
    )


@pytest.mark.parametrize("make_owner", [_pipeline_owner, _cluster_owner])
def test_latency_window_contract_is_the_same_for_both_owners(make_owner):
    # PipelineStats and ClusterStats delegate to one LatencyWindow, so both
    # must read exactly numpy's percentiles of the samples they were fed.
    stats, record, summary = make_owner()
    empty = {"count": 0.0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}
    assert summary() == empty

    samples = np.random.default_rng(5).gamma(2.0, 0.01, size=257)
    for value in samples:
        record(float(value))
    p50, p90, p99 = np.percentile(samples, [50.0, 90.0, 99.0])
    assert summary() == {
        "count": 257.0, "mean": float(samples.mean()),
        "p50": float(p50), "p90": float(p90), "p99": float(p99),
    }

    def writer():
        for i in range(3000):
            record(i * 1e-6)

    def resetter():
        for _ in range(100):
            stats.reset()
            summary()

    hammer([writer, resetter])
    stats.reset()
    assert summary() == empty


def test_latency_percentile_bounds():
    stats = PipelineStats()
    assert stats.latency_percentile(99.0) == 0.0
    for outside in (-0.1, 100.1):
        with pytest.raises(ValueError):
            stats.latency_percentile(outside)
    samples = np.random.default_rng(5).gamma(2.0, 0.01, size=257)
    for value in samples:
        stats.record_latency(float(value))
    assert stats.latency_percentile(100.0) == float(samples.max())
