"""Tests for the dynamic-batching serving frontend (repro.serving.service)."""

import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np
import pytest

from repro.data import split_domain
from repro.linking import BlinkPipeline
from repro.serving import (
    EntityLinkingPipeline,
    LinkingService,
    ReplicaPool,
    RestartPolicy,
    Router,
    Supervisor,
)
from repro.serving.service import SCHEDULER_HEARTBEAT_SECONDS
from repro.utils.config import BiEncoderConfig, CrossEncoderConfig, EncoderConfig

ENC = EncoderConfig(model_dim=16, num_layers=1, num_heads=2, hidden_dim=32, max_length=32)
BI_CFG = BiEncoderConfig(encoder=ENC, epochs=1, batch_size=8, learning_rate=5e-3)
CX_CFG = CrossEncoderConfig(encoder=ENC, epochs=1, batch_size=4, num_candidates=3, learning_rate=5e-3)

#: Generous wall-clock bound for waiting on futures; the tests only rely on
#: *which* condition triggered the flush, never on tight timing.
RESULT_TIMEOUT = 30.0
#: How long a gated batch is held, or a replica frozen, so the window a
#: wrong rule would wait is far above a tiny pipeline's run time.
HOLD_SECONDS = 0.3
FREEZE_SECONDS = 0.5


@pytest.fixture(scope="module")
def service_setup(tiny_corpus, tiny_tokenizer):
    split = split_domain(tiny_corpus, "lego", seed_size=20, dev_size=10)
    entities = tiny_corpus.entities("lego") + tiny_corpus.entities("yugioh")
    blink = BlinkPipeline(tiny_tokenizer, BI_CFG, CX_CFG)
    return blink, entities, split.test[:12]


def make_pipeline(blink, entities, **kwargs):
    index = blink.biencoder.build_sharded_index(entities)
    return EntityLinkingPipeline(
        blink.biencoder, index, blink.crossencoder, k=4, batch_size=8, **kwargs
    )


class GatedLink:
    """Holds every ``pipeline.link`` call until :attr:`open` is set.

    The test, not the clock, decides when a batch ends: :meth:`hold` returns
    once a batch is in flight, so what is submitted next is queued behind it.
    ``sizes`` records each batch's size in flush order.
    """

    def __init__(self, pipeline):
        self._link = pipeline.link
        self.open = threading.Event()
        self.entered = threading.Semaphore(0)
        self.sizes = []
        pipeline.link = self

    def __call__(self, mentions):
        self.sizes.append(len(mentions))
        self.entered.release()
        assert self.open.wait(RESULT_TIMEOUT)
        return self._link(mentions)

    def hold(self, service, mention):
        """Submit ``mention``; return its future once its batch waits at the gate."""
        future = service.submit(mention)
        assert self.entered.acquire(timeout=RESULT_TIMEOUT)
        return future


class TestBatchingRule:
    def test_idle_service_flushes_a_lone_request(self, service_setup):
        # Nothing else queued and nothing running: the request leaves at
        # once as a batch of one instead of waiting for company.
        blink, entities, mentions = service_setup
        pipeline = make_pipeline(blink, entities)
        gate = GatedLink(pipeline)
        with LinkingService(pipeline, max_batch_size=64) as service:
            started = time.perf_counter()
            future = service.submit(mentions[0])
            assert gate.entered.acquire(timeout=RESULT_TIMEOUT)
            waited = time.perf_counter() - started
            gate.open.set()
            assert future.result(timeout=RESULT_TIMEOUT).mention_id == mentions[0].mention_id
        assert waited < SCHEDULER_HEARTBEAT_SECONDS / 2
        assert gate.sizes == [1]
        assert pipeline.stats.batches == 1

    def test_requests_queued_behind_a_batch_leave_together(self, service_setup):
        blink, entities, mentions = service_setup
        pipeline = make_pipeline(blink, entities)
        gate = GatedLink(pipeline)
        with LinkingService(pipeline, max_batch_size=4) as service:
            held = gate.hold(service, mentions[0])
            queued = [service.submit(mention) for mention in mentions[1:4]]
            gate.open.set()
            results = [future.result(timeout=RESULT_TIMEOUT) for future in [held, *queued]]
        assert [r.mention_id for r in results] == [m.mention_id for m in mentions[:4]]
        assert gate.sizes == [1, 3]
        assert pipeline.stats.batches == 2

    def test_backlog_splits_into_full_batches(self, service_setup):
        blink, entities, mentions = service_setup
        pipeline = make_pipeline(blink, entities)
        gate = GatedLink(pipeline)
        with LinkingService(pipeline, max_batch_size=4) as service:
            held = gate.hold(service, mentions[0])
            backlog = [service.submit(mention) for mention in mentions[1:9]]
            gate.open.set()
            for future in [held, *backlog]:
                future.result(timeout=RESULT_TIMEOUT)
        assert gate.sizes == [1, 4, 4]
        assert pipeline.stats.mentions == 9

    def test_frozen_replica_does_not_stretch_the_window(self, service_setup):
        # A freeze holds a batch at the fault gate, before the timed
        # pipeline.link: the batch queued behind it must not then wait
        # another freeze-length window for company.
        blink, entities, mentions = service_setup
        service = LinkingService(make_pipeline(blink, entities), max_batch_size=8)
        try:
            service.faults.freeze()
            held = service.submit(mentions[0])
            for _ in range(200):  # until it is popped: frozen in flight
                if service.pending == 0:
                    break
                time.sleep(0.01)
            assert service.pending == 0
            time.sleep(FREEZE_SECONDS)
            queued = [service.submit(mention) for mention in mentions[1:3]]
            thawed = time.perf_counter()
            service.faults.unfreeze()
            held.result(timeout=RESULT_TIMEOUT)
            for future in queued:
                future.result(timeout=RESULT_TIMEOUT)
            waited = time.perf_counter() - thawed
        finally:
            service.drain(timeout=RESULT_TIMEOUT)
        assert service.stats.batches == 2
        assert waited < FREEZE_SECONDS / 2


class TestReplicaLifecycle:
    def test_timed_out_drain_reads_draining_until_the_scheduler_exits(self, service_setup):
        # A drain whose timeout lapses mid-batch returns with the scheduler
        # still flushing.  The slot must read draining, which the supervisor
        # leaves alone, and stopped only once the scheduler has exited.
        blink, entities, mentions = service_setup
        pool = ReplicaPool.from_pipeline(make_pipeline(blink, entities), replicas=1)
        replica = pool.replica(0)
        gate = GatedLink(replica.pipeline)
        policy = RestartPolicy(initial_backoff_seconds=0.0, jitter=0.0)
        with Router(pool) as router:
            held = gate.hold(replica, mentions[0])
            queued = [replica.submit(mention) for mention in mentions[1:3]]
            replica.drain(timeout=0.05)
            assert replica.state == "draining"
            with Supervisor(router, policy=policy, interval=3600.0) as supervisor:
                supervisor.tick()
            assert pool.replica(0).name == "replica-0"  # not restarted: no @g1
            gate.open.set()
            for future in [held, *queued]:
                future.result(timeout=RESULT_TIMEOUT)
            replica.close(timeout=RESULT_TIMEOUT)  # join the exiting scheduler
            assert replica.state == "stopped"

    def test_readme_serving_example(self, service_setup):
        # README § "Serving": the snippet's calls, in its order.
        blink, entities, mentions = service_setup
        service = LinkingService(make_pipeline(blink, entities), max_batch_size=64, start=False)
        service.warm_up()
        with service:
            future = service.submit(mentions[0])
            assert future.result(timeout=RESULT_TIMEOUT).mention_id == mentions[0].mention_id
            assert service.stats.latency_summary()["count"] == 1


class TestLinkingService:
    def test_max_batch_flush(self, service_setup):
        # The held batch runs for HOLD_SECONDS, so the request queued behind
        # it may wait that long for company; reaching max_batch_size ends
        # the wait at once.
        blink, entities, mentions = service_setup
        pipeline = make_pipeline(blink, entities)
        gate = GatedLink(pipeline)
        with LinkingService(pipeline, max_batch_size=4) as service:
            held = gate.hold(service, mentions[0])
            time.sleep(HOLD_SECONDS)
            waiting = service.submit(mentions[1])
            gate.open.set()
            held.result(timeout=RESULT_TIMEOUT)
            started = time.perf_counter()
            company = [service.submit(mention) for mention in mentions[2:5]]
            results = [future.result(timeout=RESULT_TIMEOUT) for future in [waiting, *company]]
            elapsed = time.perf_counter() - started
        assert [r.mention_id for r in results] == [m.mention_id for m in mentions[1:5]]
        assert gate.sizes == [1, 4]
        assert elapsed < HOLD_SECONDS / 2

    def test_results_match_batch_pipeline(self, service_setup):
        blink, entities, mentions = service_setup
        pipeline = make_pipeline(blink, entities)
        expected = pipeline.link(mentions)
        with LinkingService(pipeline, max_batch_size=5) as service:
            futures = [service.submit(mention) for mention in mentions]
            results = [future.result(timeout=RESULT_TIMEOUT) for future in futures]
        for got, want in zip(results, expected):
            assert got.mention_id == want.mention_id
            assert got.candidate_ids == want.candidate_ids
            assert got.predicted_entity_id == want.predicted_entity_id

    def test_ordering_under_concurrent_submitters(self, service_setup):
        # Several threads trickling in requests: every future must resolve to
        # the result of exactly the mention that was submitted with it.
        blink, entities, mentions = service_setup
        pipeline = make_pipeline(blink, entities)
        collected = {}
        errors = []

        def submitter(worker_id, service, batch):
            try:
                futures = [(m, service.submit(m)) for m in batch]
                collected[worker_id] = [
                    (m.mention_id, f.result(timeout=RESULT_TIMEOUT).mention_id)
                    for m, f in futures
                ]
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        with LinkingService(pipeline, max_batch_size=4) as service:
            threads = [
                threading.Thread(target=submitter, args=(i, service, mentions[i::3]))
                for i in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=RESULT_TIMEOUT)
        assert not errors
        assert len(collected) == 3
        for pairs in collected.values():
            for submitted_id, result_id in pairs:
                assert submitted_id == result_id

    def test_close_drains_pending_requests(self, service_setup):
        # Requests still queued behind a running batch when close() is
        # called are completed by the graceful shutdown drain.
        blink, entities, mentions = service_setup
        pipeline = make_pipeline(blink, entities)
        gate = GatedLink(pipeline)
        service = LinkingService(pipeline, max_batch_size=64)
        held = gate.hold(service, mentions[5])
        futures = [service.submit(mention) for mention in mentions[:5]]
        opener = threading.Timer(0.05, gate.open.set)  # fires once close() is waiting
        opener.start()
        service.close(timeout=RESULT_TIMEOUT)
        opener.join(timeout=RESULT_TIMEOUT)
        assert held.result(timeout=0).mention_id == mentions[5].mention_id
        assert not service.running
        for mention, future in zip(mentions[:5], futures):
            assert future.result(timeout=0).mention_id == mention.mention_id

    def test_submit_after_close_raises(self, service_setup):
        blink, entities, mentions = service_setup
        service = LinkingService(make_pipeline(blink, entities))
        service.close(timeout=RESULT_TIMEOUT)
        with pytest.raises(RuntimeError):
            service.submit(mentions[0])
        with pytest.raises(RuntimeError):
            service.start()

    def test_submit_before_start_raises(self, service_setup):
        blink, entities, mentions = service_setup
        service = LinkingService(make_pipeline(blink, entities), start=False)
        with pytest.raises(RuntimeError):
            service.submit(mentions[0])
        service.close()

    def test_link_blocking_wrapper(self, service_setup):
        blink, entities, mentions = service_setup
        with LinkingService(make_pipeline(blink, entities)) as service:
            result = service.link(mentions[0], timeout=RESULT_TIMEOUT)
        assert result.mention_id == mentions[0].mention_id

    def test_pipeline_errors_propagate_to_futures(self, service_setup, monkeypatch):
        blink, entities, mentions = service_setup
        pipeline = make_pipeline(blink, entities)

        def boom(mentions):
            raise RuntimeError("index unavailable")

        monkeypatch.setattr(pipeline, "link", boom)
        with LinkingService(pipeline, max_batch_size=2) as service:
            future = service.submit(mentions[0])
            with pytest.raises(RuntimeError, match="index unavailable"):
                future.result(timeout=RESULT_TIMEOUT)

    def test_latency_percentiles_recorded(self, service_setup):
        blink, entities, mentions = service_setup
        pipeline = make_pipeline(blink, entities)
        with LinkingService(pipeline, max_batch_size=4) as service:
            futures = [service.submit(mention) for mention in mentions[:8]]
            for future in futures:
                future.result(timeout=RESULT_TIMEOUT)
        summary = pipeline.stats.latency_summary()
        assert summary["count"] == 8
        assert 0 < summary["p50"] <= summary["p90"] <= summary["p99"]
        assert pipeline.stats.latency_percentile(100.0) >= summary["p99"]
        with pytest.raises(ValueError):
            pipeline.stats.latency_percentile(101.0)
        pipeline.stats.reset()
        assert pipeline.stats.latency_summary()["count"] == 0

    def test_warm_up_materialises_selected_shards(self, service_setup):
        blink, entities, _ = service_setup
        pipeline = make_pipeline(blink, entities)
        with LinkingService(pipeline) as service:
            index = pipeline.index
            assert not index.is_materialized("lego")
            assert service.warm_up(["lego"]) == ["lego"]
            assert index.is_materialized("lego")
            assert not index.is_materialized("yugioh")
            assert service.warm_up() == index.worlds()
            assert all(index.is_materialized(world) for world in index.worlds())

    def test_link_timeout_cancels_queued_request(self, service_setup):
        # A timed-out link() must cancel its queued request so it stops
        # consuming a batch slot; the flush skips it via
        # set_running_or_notify_cancel and only live requests are linked.
        blink, entities, mentions = service_setup
        pipeline = make_pipeline(blink, entities)
        gate = GatedLink(pipeline)
        with LinkingService(pipeline, max_batch_size=64) as service:
            # Behind a held batch the request is guaranteed to still be
            # queued (not RUNNING) when the timeout fires.
            held = gate.hold(service, mentions[4])
            with pytest.raises(FutureTimeoutError):
                service.link(mentions[0], timeout=0.05)
            assert service.pending == 1  # cancelled but still queued
            live = [service.submit(mention) for mention in mentions[1:4]]
            # The next flush skips the cancelled request; the live ones
            # complete.
            gate.open.set()
            service.close(timeout=RESULT_TIMEOUT)
        assert held.result(timeout=0).mention_id == mentions[4].mention_id
        for mention, future in zip(mentions[1:4], live):
            assert future.result(timeout=0).mention_id == mention.mention_id
        assert gate.sizes == [1, 3]
        assert pipeline.stats.mentions == 4

    def test_flush_skips_cancelled_queued_requests(self, service_setup):
        # Directly exercise the set_running_or_notify_cancel path: cancel a
        # future queued behind a held batch, then let the next flush run.
        blink, entities, mentions = service_setup
        pipeline = make_pipeline(blink, entities)
        gate = GatedLink(pipeline)
        with LinkingService(pipeline, max_batch_size=64) as service:
            held = gate.hold(service, mentions[2])
            doomed = service.submit(mentions[0])
            survivor = service.submit(mentions[1])
            assert doomed.cancel()
            gate.open.set()
            service.close(timeout=RESULT_TIMEOUT)
        assert doomed.cancelled()
        assert held.result(timeout=0).mention_id == mentions[2].mention_id
        assert survivor.result(timeout=0).mention_id == mentions[1].mention_id
        assert gate.sizes == [1, 1]
        assert pipeline.stats.mentions == 2
        assert pipeline.stats.latency_summary()["count"] == 2

    def test_warm_up_unknown_world_raises_value_error(self, service_setup):
        blink, entities, _ = service_setup
        pipeline = make_pipeline(blink, entities)
        with LinkingService(pipeline) as service:
            with pytest.raises(ValueError, match="unknown world") as excinfo:
                service.warm_up(["lego", "atlantis"])
            # The message lists the known worlds and nothing was built.
            assert "lego" in str(excinfo.value)
            assert not pipeline.index.is_materialized("lego")

    def test_invalid_parameters_rejected(self, service_setup):
        blink, entities, _ = service_setup
        pipeline = make_pipeline(blink, entities)
        with pytest.raises(ValueError):
            LinkingService(pipeline, max_batch_size=0)

    def test_default_batch_size_follows_pipeline(self, service_setup):
        blink, entities, _ = service_setup
        pipeline = make_pipeline(blink, entities)
        service = LinkingService(pipeline, start=False)
        assert service.max_batch_size == pipeline.batch_size
        service.close()

    def test_start_is_idempotent(self, service_setup):
        blink, entities, mentions = service_setup
        service = LinkingService(make_pipeline(blink, entities))
        service.start()  # no-op while running
        assert service.running
        assert service.link(mentions[0], timeout=RESULT_TIMEOUT) is not None
        service.close(timeout=RESULT_TIMEOUT)
        service.close()  # idempotent


class TestServiceSnapshotIntegration:
    def test_snapshot_round_trip_links_the_same(self, service_setup, tmp_path):
        # Save the live index, reload it through the bi-encoder (which rebinds
        # embed_fn), and serve from the restored index: predictions must be
        # identical to the pre-save service.
        blink, entities, mentions = service_setup
        index = blink.biencoder.build_sharded_index(entities)
        pipeline = EntityLinkingPipeline(
            blink.biencoder, index, blink.crossencoder, k=4, batch_size=8
        )
        expected = pipeline.link(mentions)
        index.save(tmp_path / "snapshot")

        restored = blink.biencoder.load_sharded_index(tmp_path / "snapshot")
        restored_pipeline = EntityLinkingPipeline(
            blink.biencoder, restored, blink.crossencoder, k=4, batch_size=8
        )
        with LinkingService(restored_pipeline, max_batch_size=4) as service:
            results = [
                service.submit(mention).result(timeout=RESULT_TIMEOUT)
                for mention in mentions
            ]
        for got, want in zip(results, expected):
            assert got.candidate_ids == want.candidate_ids
            # Rankings are identical; raw scores may differ by ~1 ulp because
            # BLAS results depend on buffer alignment after reload.
            assert np.allclose(got.retrieval_scores, want.retrieval_scores,
                               rtol=0.0, atol=1e-12)
            assert got.predicted_entity_id == want.predicted_entity_id
