"""Online KB mutation under serving: live add/update/remove + compaction.

The acceptance story of the index layer: entities added to a *live* index
are linkable immediately (pending-tail hits), removals disappear from
candidates, and removes, re-adds and ``compact()`` racing a stream of
in-flight requests lose none of them — a search reads one immutable state
and takes its candidates from it, mutations swap that state atomically.
"""

import sys
import threading

import numpy as np
import pytest

from repro.index import IVFBackend
from repro.kb import Entity
from repro.linking import BlinkPipeline
from repro.serving import EntityLinkingPipeline, LinkingService
from repro.utils.config import BiEncoderConfig, CrossEncoderConfig, EncoderConfig

ENC = EncoderConfig(model_dim=16, num_layers=1, num_heads=2, hidden_dim=32, max_length=32)
BI_CFG = BiEncoderConfig(encoder=ENC, epochs=1, batch_size=8, learning_rate=5e-3)
CX_CFG = CrossEncoderConfig(encoder=ENC, epochs=1, batch_size=4, num_candidates=3, learning_rate=5e-3)

RESULT_TIMEOUT = 30.0


@pytest.fixture(scope="module")
def serving_setup(tiny_corpus, tiny_tokenizer):
    blink = BlinkPipeline(tiny_tokenizer, BI_CFG, CX_CFG)
    entities = tiny_corpus.entities("lego") + tiny_corpus.entities("yugioh")
    mentions = tiny_corpus.mentions("lego")[:24]
    return blink, entities, mentions


def build_live_index(blink, entities):
    return blink.biencoder.build_sharded_index(
        entities, lazy=False, backend=IVFBackend(nprobe=4)
    )


class TestMutationUnderServing:
    def test_pending_tail_hit_linkable_before_compact(self, serving_setup):
        blink, entities, _ = serving_setup
        index = build_live_index(blink, entities)
        newcomer = Entity(
            entity_id="lego:brand-new",
            title="Brand New Set",
            description="a set introduced after the index was built",
            domain="lego",
        )
        index.add_entities([newcomer])  # embeds through the live embed_fn
        assert index.shard("lego").num_pending == 1

        # The pending-tail row must be retrievable right now, pre-compact.
        query = index.vector("lego:brand-new")[None, :]
        assert index.search(query, k=1, worlds=["lego"])[0].entity_ids == [
            "lego:brand-new"
        ]

        index.compact()
        assert index.shard("lego").num_pending == 0
        assert index.search(query, k=1, worlds=["lego"])[0].entity_ids == [
            "lego:brand-new"
        ]

    def test_removed_entity_leaves_candidates(self, serving_setup):
        blink, entities, _ = serving_setup
        index = build_live_index(blink, entities)
        victim = entities[0].entity_id
        query = index.vector(victim)[None, :]
        assert victim in index.search(query, k=8)[0].entity_ids
        index.remove_entities([victim])
        assert victim not in index.search(query, k=8)[0].entity_ids

    def test_update_entity_moves_in_vector_space(self, serving_setup):
        blink, entities, _ = serving_setup
        index = build_live_index(blink, entities)
        target = entities[1]
        moved = np.full((1, ENC.model_dim), 11.0)
        index.update_entities([target], moved)
        assert index.search(moved, k=1)[0].entity_ids == [target.entity_id]

    def test_compaction_mid_load_loses_no_requests(self, serving_setup):
        """Futures submitted around a racing compact() all complete."""
        blink, entities, mentions = serving_setup
        index = build_live_index(blink, entities)
        pipeline = EntityLinkingPipeline(
            blink.biencoder, index, blink.crossencoder, k=4, batch_size=8
        )
        expected = {m.mention_id for m in mentions}
        newcomers = [
            Entity(
                entity_id=f"lego:live-{j}",
                title=f"live addition {j}",
                description="added while traffic is flowing",
                domain="lego",
            )
            for j in range(6)
        ]

        stop = threading.Event()
        mutation_errors = []

        def churn():
            # add -> compact -> remove, repeatedly, racing the link stream.
            try:
                index.add_entities(newcomers)
                while not stop.is_set():
                    index.compact()
                index.remove_entities([e.entity_id for e in newcomers])
                index.compact()
            except Exception as error:  # pragma: no cover - fails the test
                mutation_errors.append(error)

        with LinkingService(pipeline, max_batch_size=4) as service:
            mutator = threading.Thread(target=churn)
            mutator.start()
            try:
                futures = [service.submit(m) for m in mentions]
                results = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
            finally:
                stop.set()
                mutator.join(timeout=RESULT_TIMEOUT)

        assert not mutation_errors
        assert {r.mention_id for r in results} == expected
        # Every request produced a real linking result with candidates.
        assert all(r.candidate_ids for r in results)
        # The shard really did compact at least once mid-stream ...
        assert index.shard("lego").generation >= 1
        # ... and the temporary additions are gone again.
        assert "lego:live-0" not in index

    @pytest.mark.parametrize(
        "backend", [None, IVFBackend(nprobe=10**9)], ids=["exhaustive", "celled"]
    )
    def test_remove_and_readd_mid_link_loses_nothing(self, serving_setup, backend):
        """The retrieve stage used to look candidate ids up again after the
        search had returned, so a remove landing in between made ``link``
        raise KeyError.  Candidates now come from the state that scored
        them: nothing is lost, and with ``k`` covering the whole world every
        candidate list is exactly the live set of one committed state."""
        blink, entities, mentions = serving_setup
        index = blink.biencoder.build_sharded_index(entities, lazy=False, backend=backend)
        lego = [e for e in entities if e.domain == "lego"]
        churned = lego[::2]
        churned_ids = [e.entity_id for e in churned]
        vectors = np.stack([index.vector(entity_id) for entity_id in churned_ids])
        everything = frozenset(e.entity_id for e in lego)
        committed = {everything, everything - frozenset(churned_ids)}
        pipeline = EntityLinkingPipeline(
            blink.biencoder, index, k=len(lego), rerank=False, batch_size=8
        )

        stop = threading.Event()
        mutation_errors = []

        def churn():
            try:
                cycle = 0
                # The pauses leave the reader most of the interpreter: a
                # mutator that spins starves it and the test takes minutes.
                while not stop.wait(0.0002):
                    index.remove_entities(churned_ids)
                    stop.wait(0.0002)
                    index.add_entities(churned, vectors)
                    cycle += 1
                    if cycle % 8 == 0:
                        index.compact()  # keeps tail and tombstones bounded
            except Exception as error:  # pragma: no cover - fails the test
                mutation_errors.append(error)

        mutator = threading.Thread(target=churn)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the GIL over often: more interleavings
        try:
            mutator.start()
            results = [r for _ in range(40) for r in pipeline.link(mentions)]
        finally:
            stop.set()
            mutator.join(timeout=RESULT_TIMEOUT)
            sys.setswitchinterval(interval)

        assert not mutator.is_alive() and not mutation_errors
        assert len(results) == 40 * len(mentions)
        seen = {frozenset(r.candidate_ids) for r in results}
        assert seen <= committed
