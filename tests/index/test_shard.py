"""EntityShard: parity of the two coarse stages, recall, pinned-state reads, mutation.

Tests that take ``cells`` run on both coarse stages: ``None`` is the
exhaustive scan, an :class:`IVFBackend` the celled probe.
"""

import sys
import threading

import numpy as np
import pytest

from repro.bench import synthetic_kb
from repro.eval import recall_at_k
from repro.index import (
    EntityShard,
    IVFBackend,
    RetrievalResult,
    default_num_cells,
    kmeans,
    read_snapshot,
    write_snapshot,
)
from repro.kb import Entity
from repro.linking import ShardedEntityIndex


def stages(nprobe):
    """Parametrise ``cells`` over both coarse stages, 10 cells when celled."""
    return pytest.mark.parametrize(
        "cells",
        [None, IVFBackend(num_cells=10, nprobe=nprobe)],
        ids=["exhaustive", f"celled-nprobe{nprobe}"],
    )


#: The celled stage probes every cell here, so it must agree with the
#: exhaustive one exactly.
BOTH_STAGES = stages(nprobe=10)


def make_entities(world, count):
    return [
        Entity(
            entity_id=f"{world}:{index}",
            title=f"{world} entity {index}",
            description=f"description {index}",
            domain=world,
        )
        for index in range(count)
    ]


@pytest.fixture
def kb():
    rng = np.random.default_rng(3)
    entities = make_entities("w", 120)
    vectors = rng.normal(size=(120, 16))
    return entities, vectors


@pytest.fixture
def queries():
    return np.random.default_rng(4).normal(size=(10, 16))


class TestKMeans:
    def test_deterministic(self):
        vectors = np.random.default_rng(0).normal(size=(50, 8))
        c1, a1 = kmeans(vectors, 7, seed=5)
        c2, a2 = kmeans(vectors, 7, seed=5)
        assert np.array_equal(c1, c2) and np.array_equal(a1, a2)

    def test_no_empty_cells_when_points_suffice(self):
        vectors = np.random.default_rng(1).normal(size=(60, 4))
        _, assignments = kmeans(vectors, 8, seed=0)
        assert len(np.unique(assignments)) == 8

    def test_default_num_cells(self):
        assert default_num_cells(0) == 1
        assert default_num_cells(1) == 1
        assert default_num_cells(100) == 10
        assert default_num_cells(100_000) == 316

    def test_assignments_match_returned_centroids(self):
        """Heavily duplicated points force empty cells and re-seeding; the
        returned assignments must be the nearest-centroid assignment of the
        *returned* centroids, or a re-seeded cell sits directly on a real
        point while its inverted list is empty (a deterministic recall
        hole for queries matching that point)."""
        rng = np.random.default_rng(2)
        vectors = np.repeat(rng.normal(size=(5, 4)), 12, axis=0)
        centroids, assignments = kmeans(vectors, 20, seed=0)
        scores = vectors @ centroids.T
        norms = np.einsum("cd,cd->c", centroids, centroids)
        expected = np.argmin(norms[None, :] - 2.0 * scores, axis=1)
        assert np.array_equal(assignments, expected)


class TestExactParity:
    def test_full_probe_no_quantization_matches_exact(self, kb, queries):
        """Acceptance criterion: nprobe = all cells + float64 == exact."""
        entities, vectors = kb
        exact = EntityShard(entities, vectors)
        shard = EntityShard(entities, vectors, cells=IVFBackend(num_cells=10, nprobe=10))
        exact_results = exact.search(queries, k=12)
        ivf_results = shard.search(queries, k=12)
        for a, b in zip(exact_results, ivf_results):
            assert a.entity_ids == b.entity_ids
            assert np.array_equal(a.scores, b.scores)

    def test_parity_through_sharded_index(self, queries):
        rng = np.random.default_rng(9)
        entities = make_entities("a", 60) + make_entities("b", 40)
        table = {e.entity_id: rng.normal(size=16) for e in entities}
        embed = lambda chunk: np.stack([table[e.entity_id] for e in chunk])
        exact = ShardedEntityIndex.from_entities(entities, embed_fn=embed)
        ivf = ShardedEntityIndex.from_entities(
            entities, embed_fn=embed, backend=IVFBackend(nprobe=10**9)
        )
        for a, b in zip(exact.search(queries, k=8), ivf.search(queries, k=8)):
            assert a.entity_ids == b.entity_ids

    def test_partial_probe_recall_reasonable(self, kb, queries):
        entities, vectors = kb
        exact = EntityShard(entities, vectors)
        shard = EntityShard(entities, vectors, cells=IVFBackend(num_cells=10, nprobe=6))
        recall = recall_at_k(shard.search(queries, k=10), exact.search(queries, k=10))
        assert recall >= 0.5  # random gaussian data is the worst case

    def test_recall_floors_on_a_clustered_kb(self):
        """The floors the index is held to at serving shape: a partial probe
        (8 of 64 cells) over a clustered KB keeps recall@64 >= 0.95 against
        the exhaustive scan.  125 aliases per base keep a true top-64 inside one cluster;
        with fewer than 2k rows per base the same probe reads ~0.75, which is
        geometry, not a defect."""
        k = 64
        entities, vectors = synthetic_kb(8000, dim=32, num_base=64, num_worlds=4, seed=13)
        rng = np.random.default_rng(13)
        rows = rng.choice(len(vectors), size=128, replace=False)
        rms = float(np.sqrt(np.mean(vectors**2)))
        queries = vectors[rows] + 0.05 * rms * rng.standard_normal((128, 32))
        exact = EntityShard(entities, vectors).search(queries, k=k)
        shard = EntityShard(entities, vectors, cells=IVFBackend(num_cells=64, nprobe=8, seed=13))
        recall = recall_at_k(shard.search(queries, k=k), exact)
        assert recall >= 0.95, recall


class TestSearchShapes:
    def test_padding_when_probed_cells_are_small(self, kb):
        entities, vectors = kb
        shard = EntityShard(entities, vectors, cells=IVFBackend(num_cells=30, nprobe=1))
        scores, positions, found = shard.search_arrays(vectors[:3], k=50)
        assert (positions < 0).any()  # one cell rarely holds 50 entities
        assert np.all(scores[positions < 0] == -np.inf)
        assert all(entity is None for entity in found[positions < 0])
        # RetrievalResult rows never contain padding.
        for result in shard.search(vectors[:3], k=50):
            assert "-1" not in result.entity_ids
            assert len(result) <= 50

    def test_deterministic_across_calls(self, kb, queries):
        entities, vectors = kb
        shard = EntityShard(entities, vectors, cells=IVFBackend(num_cells=10, nprobe=3))
        first = shard.search(queries, k=5)
        second = shard.search(queries, k=5)
        for a, b in zip(first, second):
            assert a.entity_ids == b.entity_ids


class TestSnapshotConsistency:
    @BOTH_STAGES
    def test_search_arrays_entities_match_positions(self, kb, queries, cells):
        entities, vectors = kb
        shard = EntityShard(entities, vectors, cells=cells)
        shard.remove([entities[2].entity_id])
        _, positions, found = shard.search_arrays(queries, k=500)
        assert found.shape == positions.shape
        assert entities[2] not in found.ravel().tolist()
        for position, entity in zip(positions.ravel(), found.ravel()):
            if position < 0:
                assert entity is None
            else:
                assert entity is entities[int(position)]

    @BOTH_STAGES
    def test_compact_mid_search_resolves_captured_generation(
        self, kb, monkeypatch, cells
    ):
        """A compact() landing between scoring and entity resolution must not
        remap positions: both steps read the state captured at call time.
        The pending-tail position here exceeds every range of the compacted
        generation, so resolving through the wrong state would raise or
        return a wrong entity."""
        entities, vectors = kb
        shard = EntityShard(entities, vectors, cells=cells)
        new = Entity(entity_id="w:new", title="new", description="d", domain="w")
        target = np.full((1, 16), 5.0)
        shard.add([new], target)
        shard.remove([entities[0].entity_id])

        inner = EntityShard._topk

        def racing(self, state, queries, k):
            result = inner(self, state, queries, k)
            self.compact()  # generation swap before entities are resolved
            return result

        monkeypatch.setattr(EntityShard, "_topk", racing)
        result = shard.search(target, k=1)[0]
        assert result.entity_ids == ["w:new"] and result.entities == [new]
        shard.remove([entities[1].entity_id])  # the next compact() shifts rows again
        _, _, found = shard.search_arrays(target, k=1)
        assert found[0][0] is new
        assert shard.generation == 2

    @BOTH_STAGES
    def test_fanout_merge_resolves_ids_atomically(self, monkeypatch, cells):
        """The sharded fan-out merge must take entities from the shard's own
        atomic search, not re-resolve positions after the fact."""
        rng = np.random.default_rng(9)
        entities = make_entities("a", 40) + make_entities("b", 30)
        table = {e.entity_id: rng.normal(size=16) for e in entities}
        embed = lambda chunk: np.stack([table[e.entity_id] for e in chunk])
        index = ShardedEntityIndex.from_entities(entities, embed_fn=embed, backend=cells)
        for world in index.worlds():
            index.shard(world)
        new = Entity(entity_id="a:new", title="n", description="d", domain="a")
        target = np.full((1, 16), 5.0)
        index.add_entities([new], target)

        inner = EntityShard._topk

        def racing(self, state, queries, k):
            result = inner(self, state, queries, k)
            self.compact()
            return result

        monkeypatch.setattr(EntityShard, "_topk", racing)
        assert index.search(target, k=1)[0].entity_ids == ["a:new"]
        assert index.shard("a").generation == 1


class TestMutation:
    @stages(nprobe=2)
    def test_added_entities_searchable_immediately(self, kb, cells):
        entities, vectors = kb
        shard = EntityShard(entities, vectors, cells=cells)
        new = Entity(entity_id="w:new", title="new", description="d", domain="w")
        vector = np.full((1, 16), 5.0)
        shard.add([new], vector)
        assert shard.num_pending == 1
        assert "w:new" in shard
        result = shard.search(vector, k=1)[0]
        assert result.entity_ids == ["w:new"]

    @BOTH_STAGES
    def test_add_duplicate_rejected(self, kb, cells):
        entities, vectors = kb
        shard = EntityShard(entities, vectors, cells=cells)
        with pytest.raises(ValueError, match="update"):
            shard.add([entities[0]], vectors[:1])

    @BOTH_STAGES
    def test_misaligned_vectors_rejected(self, kb, cells):
        entities, vectors = kb
        shard = EntityShard(entities, vectors, cells=cells)
        new = Entity(entity_id="w:new", title="new", description="d", domain="w")
        with pytest.raises(ValueError, match="align"):
            shard.add([new], vectors[:2])
        with pytest.raises(ValueError, match="align"):
            shard.update([entities[0]], vectors[:2])

    @BOTH_STAGES
    def test_remove_tombstones(self, kb, queries, cells):
        entities, vectors = kb
        shard = EntityShard(entities, vectors, cells=cells)
        shard.remove([entities[0].entity_id, entities[5].entity_id])
        assert len(shard) == len(entities) - 2
        assert shard.num_tombstones == 2
        for result in shard.search(queries, k=len(entities)):
            assert len(result) == len(entities) - 2
            assert entities[0].entity_id not in result.entity_ids
            assert entities[5].entity_id not in result.entity_ids

    @BOTH_STAGES
    def test_remove_unknown_raises(self, kb, cells):
        entities, vectors = kb
        shard = EntityShard(entities, vectors, cells=cells)
        with pytest.raises(KeyError):
            shard.remove(["w:missing"])
        assert len(shard) == len(entities)

    @stages(nprobe=1)
    def test_update_moves_entity_to_pending(self, kb, cells):
        entities, vectors = kb
        shard = EntityShard(entities, vectors, cells=cells)
        moved = np.full((1, 16), 9.0)
        shard.update([entities[3]], moved)
        assert np.allclose(shard.vector(entities[3].entity_id), moved[0])
        result = shard.search(moved, k=1)[0]
        assert result.entity_ids == [entities[3].entity_id]

    @BOTH_STAGES
    def test_update_unknown_raises(self, kb, cells):
        entities, vectors = kb
        shard = EntityShard(entities, vectors, cells=cells)
        ghost = Entity(entity_id="w:ghost", title="g", description="d", domain="w")
        with pytest.raises(KeyError):
            shard.update([ghost], vectors[:1])

    @BOTH_STAGES
    def test_update_is_one_atomic_state_swap(self, kb, cells):
        """update() tombstones and appends in a single state publication:
        no published state may ever lack the updated entity (the old
        remove()+add() composition exposed a window where a concurrent
        search saw the entity absent entirely), and every published state
        holds an entity for each of its positions (growing the matrix
        before the entity list let a search index past the list)."""
        entities, vectors = kb
        shard = EntityShard(entities, vectors, cells=cells)
        target = entities[7]
        broken = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                state = shard._state
                if (
                    state.position_of(target.entity_id) is None
                    or len(state.entities) != len(state.storage)
                    or len(state.pending_entities) != len(state.pending_vectors)
                    or len(state.alive) != len(state.storage) + len(state.pending_vectors)
                ):
                    broken.append(True)
                    return

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            for step in range(200):
                shard.update([target], np.full((1, 16), float(step)))
        finally:
            stop.set()
            thread.join()
        assert not broken
        assert np.allclose(shard.vector(target.entity_id), 199.0)

    @BOTH_STAGES
    def test_compact_folds_pending_and_tombstones(self, kb, queries, cells):
        entities, vectors = kb
        shard = EntityShard(entities, vectors, cells=cells)
        new = Entity(entity_id="w:new", title="new", description="d", domain="w")
        shard.add([new], np.full((1, 16), 5.0))
        shard.remove([entities[0].entity_id])
        before = [r.entity_ids for r in shard.search(queries, k=20)]

        generation = shard.compact()
        assert generation == 1
        assert shard.num_pending == 0
        assert shard.num_tombstones == 0
        assert len(shard) == len(entities)  # -1 removed, +1 added
        after = [r.entity_ids for r in shard.search(queries, k=20)]
        assert before == after
        assert shard.compact() == 1  # nothing to fold: the generation stands

    @BOTH_STAGES
    def test_removing_everything_leaves_a_legal_empty_shard(self, kb, queries, cells):
        entities, vectors = kb
        shard = EntityShard(entities, vectors, cells=cells)
        shard.remove([e.entity_id for e in entities])
        assert len(shard) == 0
        assert all(len(result) == 0 for result in shard.search(queries, k=5))
        shard.compact()
        assert shard.stats()["storage_bytes"] == 0
        assert all(len(result) == 0 for result in shard.search(queries, k=5))
        shard.add([entities[4]], vectors[4:5])
        shard.compact()
        assert [r.entity_ids for r in shard.search(queries, k=5)] == [
            [entities[4].entity_id]
        ] * len(queries)


@BOTH_STAGES
class TestShardedMutation:
    def build(self, cells):
        rng = np.random.default_rng(11)
        entities = make_entities("a", 40) + make_entities("b", 30)
        table = {e.entity_id: rng.normal(size=8) for e in entities}
        embed = lambda chunk: np.stack(
            [table.setdefault(e.entity_id, rng.normal(size=8)) for e in chunk]
        )
        return ShardedEntityIndex.from_entities(entities, embed_fn=embed, backend=cells)

    def test_add_routes_by_domain_and_creates_worlds(self, cells):
        index = self.build(cells)
        additions = [
            Entity(entity_id="a:new", title="n", description="d", domain="a"),
            Entity(entity_id="c:0", title="n", description="d", domain="c"),
        ]
        index.add_entities(additions)
        assert "a:new" in index and "c:0" in index
        assert "c" in index.worlds()
        assert len(index) == 72
        assert index.search(index.vector("a:new"), k=1)[0].entity_ids == ["a:new"]

    def test_remove_and_cache_invalidation(self, cells):
        index = self.build(cells)
        index.vector("a:3")
        index.remove_entities(["a:3"])
        assert "a:3" not in index
        with pytest.raises(KeyError):
            index.vector("a:3")
        assert len(index) == 69

    def test_update_refreshes_vector(self, cells):
        index = self.build(cells)
        target = index.entity("b:2")
        moved = np.full((1, 8), 7.0)
        index.update_entities([target], moved)
        assert np.allclose(index.vector("b:2"), moved[0])

    def test_compact_returns_generations(self, cells):
        index = self.build(cells)
        index.add_entities(
            [Entity(entity_id="a:new", title="n", description="d", domain="a")]
        )
        generations = index.compact()
        assert generations == {"a": 1}  # "b" was never searched, so never built


class TestRepeatedIds:
    """A call naming one entity id twice is refused before anything is
    published (it used to leave two live rows for one id, or remove an id
    and then raise on its second mention)."""

    def test_shard_constructor(self, kb):
        entities, vectors = kb
        with pytest.raises(ValueError, match="w:3"):
            EntityShard(entities[:5] + [entities[3]], vectors[:6])

    @BOTH_STAGES
    def test_add_update_remove(self, kb, cells):
        entities, vectors = kb
        shard = EntityShard(entities[:100], vectors[:100], cells=cells)
        before = shard._state
        fresh = entities[100]
        with pytest.raises(ValueError, match="w:100"):
            shard.add([fresh, fresh], vectors[100:102])
        with pytest.raises(ValueError, match="w:7"):
            shard.update([entities[7], entities[8], entities[7]], vectors[:3])
        with pytest.raises(ValueError, match="w:9"):
            shard.remove(["w:9", "w:9"])
        assert shard._state is before
        assert fresh.entity_id not in shard and "w:9" in shard
        assert len(shard) == 100

    def test_sharded_index(self):
        rng = np.random.default_rng(2)
        entities = make_entities("a", 10)
        index = ShardedEntityIndex()
        with pytest.raises(ValueError, match="a:1"):
            index.add_shard("a", entities + [entities[1]], rng.normal(size=(11, 4)))
        assert index.num_shards == 0 and "a:1" not in index

        index.add_shard("a", entities, rng.normal(size=(10, 4)))
        new = Entity(entity_id="b:0", title="n", description="d", domain="b")
        with pytest.raises(ValueError, match="b:0"):
            index.add_entities([new, new], rng.normal(size=(2, 4)))
        with pytest.raises(ValueError, match="a:2"):
            index.update_entities([entities[2], entities[2]], rng.normal(size=(2, 4)))
        with pytest.raises(ValueError, match="a:4"):
            index.remove_entities(["a:4", "a:5", "a:4"])
        assert "b:0" not in index and "b" not in index.worlds()
        assert "a:4" in index and "a:5" in index and len(index) == 10
        found = index.search(index.vector("a:4"), k=10)[0].entity_ids
        assert sorted(found) == sorted(e.entity_id for e in entities)


class TestNonFiniteVectors:
    """A NaN or infinite vector is refused.  A NaN score compares false
    against everything, so a NaN query used to come back as an empty result
    and a NaN row was never returned, both without an error."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @stages(nprobe=3)
    def test_shard_search(self, kb, cells, bad):
        entities, vectors = kb
        shard = EntityShard(entities, vectors, cells=cells)
        queries = np.ones((3, 16))
        queries[1, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            shard.search(queries, 5)
        with pytest.raises(ValueError, match="finite"):
            shard.search_arrays(np.full((1, 16), bad), 5)

    @pytest.mark.parametrize(
        "cells", [None, IVFBackend(num_cells=4, nprobe=2)], ids=["exhaustive", "celled"]
    )
    def test_sharded_index_search(self, cells):
        rng = np.random.default_rng(4)
        index = ShardedEntityIndex(backend=cells)
        for world in ("a", "b"):
            index.add_shard(world, make_entities(world, 30), rng.normal(size=(30, 8)))
        query = np.full((1, 8), np.nan)
        with pytest.raises(ValueError, match="finite"):
            index.search(query, 5)
        with pytest.raises(ValueError, match="finite"):
            index.search_routed(query, 5, routes=["a"])

    @stages(nprobe=3)
    def test_build_add_and_update(self, kb, cells):
        entities, vectors = kb
        bad = vectors[100:102].copy()
        bad[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            EntityShard(entities[100:102], bad, cells=cells)
        shard = EntityShard(entities[:100], vectors[:100], cells=cells)
        before = shard._state
        with pytest.raises(ValueError, match="finite"):
            shard.add(entities[100:102], bad)
        bad[1, 0] = -np.inf
        with pytest.raises(ValueError, match="finite"):
            shard.update(entities[:2], bad)
        assert shard._state is before

    def test_sharded_index_writes(self):
        rng = np.random.default_rng(5)
        entities = make_entities("a", 12)
        index = ShardedEntityIndex()
        index.add_shard("a", entities[:10], rng.normal(size=(10, 4)))
        assert len(index.search(rng.normal(size=(1, 4)), 3)[0]) == 3
        with pytest.raises(ValueError, match="finite"):
            index.add_entities(entities[10:], np.full((2, 4), np.nan))
        with pytest.raises(ValueError, match="finite"):
            index.update_entities(entities[:1], np.full((1, 4), np.inf))
        assert "a:10" not in index and len(index) == 10


class TestRankMapOnFirstUse:
    """A result's rank map is built by its first ``contains`` / ``rank_of``,
    not by the search that returned it."""

    @BOTH_STAGES
    def test_search_and_search_routed_results(self, kb, queries, cells):
        entities, vectors = kb
        index = ShardedEntityIndex(backend=cells)
        index.add_shard("w", entities[:60], vectors[:60])
        index.add_shard("v", make_entities("v", 40), vectors[60:100])
        routes = ["w", "v", None] * 3 + ["w"]
        results = index.search(queries, k=8) + index.search_routed(queries, 8, routes)
        assert all("_rank_by_id" not in result.__dict__ for result in results)

        for number, result in enumerate(results):
            ids = result.entity_ids
            if number % 2:
                assert result.contains(ids[-1]) and not result.contains("w:absent")
            else:
                assert result.rank_of(ids[3]) == 3 and result.rank_of("w:absent") is None
            assert result.__dict__["_rank_by_id"] == {i: rank for rank, i in enumerate(ids)}

    def test_first_occurrence_wins(self):
        result = RetrievalResult(entity_ids=["a", "b", "a", "c", "b"], scores=[1.0] * 5)
        assert "_rank_by_id" not in result.__dict__
        assert [result.rank_of(i) for i in "abc"] == [0, 1, 3]
        assert result.__dict__["_rank_by_id"] == {"a": 0, "b": 1, "c": 3}


@BOTH_STAGES
class TestWriteCopiesOnlyWhatItChanges:
    """Every state of a generation shares its id map, main entity array and
    main matrix; a write's own map holds only the ids it moved.  A write that
    copies whole-shard structures again fails here, with no timing."""

    def test_states_share_the_generation(self, cells):
        rng = np.random.default_rng(5)
        entities = make_entities("w", 10_000)
        shard = EntityShard(entities, rng.normal(size=(10_000, 8)), cells=cells)
        base = shard._state
        added = Entity(entity_id="w:new", title="n", description="d", domain="w")
        touched = set()
        writes = [
            (lambda: shard.add([added], rng.normal(size=(1, 8))), added.entity_id),
            (lambda: shard.update([entities[17]], rng.normal(size=(1, 8))), "w:17"),
            (lambda: shard.remove(["w:4242"]), "w:4242"),
            (lambda: shard.remove([added.entity_id]), added.entity_id),
        ]
        for write, entity_id in writes:
            previous = shard._state
            write()
            state = shard._state
            touched.add(entity_id)
            assert state is not previous
            assert state.id_to_position is base.id_to_position
            assert state.entities is base.entities
            assert state.storage is base.storage
            assert set(state.moved) == touched
        assert len(shard) == 9_999 and "w:4242" not in shard
        assert shard.entity("w:17") is entities[17]

        shard.compact()
        state = shard._state
        assert state.moved == {}
        assert state.id_to_position is not base.id_to_position
        assert len(state.id_to_position) == len(state.entities) == 9_999
        assert state.position_of("w:17") == 9_998  # the updated row, now last

    def test_a_restored_shard_keeps_the_layout(self, cells, tmp_path):
        """Save → load gives the base map of the main rows and the same
        ``moved`` the writes left; a write after the load shares the loaded
        base as any other write does."""
        rng = np.random.default_rng(7)
        entities = make_entities("w", 500)
        shard = EntityShard(entities, rng.normal(size=(500, 8)), cells=cells)
        base = shard._state
        added = Entity(entity_id="w:new", title="n", description="d", domain="w")
        shard.add([added], rng.normal(size=(1, 8)))
        shard.update([entities[17]], rng.normal(size=(1, 8)))
        shard.remove(["w:42", added.entity_id])
        saved = shard._state
        write_snapshot(tmp_path, {}, [shard.export()])
        _, [record] = read_snapshot(tmp_path, mmap=True)
        loaded = EntityShard.restore(*record, cells=cells)
        state = loaded._state
        assert state.id_to_position == base.id_to_position
        assert state.moved == saved.moved == {
            "w:new": -1, "w:42": -1, "w:17": 500 + 1,
        }
        assert loaded.entities() == shard.entities()

        loaded.update([entities[3]], rng.normal(size=(1, 8)))
        after = loaded._state
        assert after.id_to_position is state.id_to_position
        assert after.entities is state.entities
        assert set(after.moved) == set(saved.moved) | {"w:3"}
        assert loaded.entity("w:17") is not None and "w:42" not in loaded

    def test_search_resolves_main_and_tail_positions(self, kb, queries, cells):
        entities, vectors = kb
        shard = EntityShard(entities, vectors, cells=cells)
        fresh = make_entities("x", 3)
        shard.add(fresh, np.random.default_rng(6).normal(size=(3, 16)))
        shard.update([entities[5]], vectors[5:6] * 2.0)
        shard.remove([entities[6].entity_id, fresh[1].entity_id])
        state = shard._state
        _, positions, found = shard.search_arrays(queries, k=500)
        for position, entity in zip(positions.ravel(), found.ravel()):
            if position < 0:
                assert entity is None
            else:
                assert entity is state.entity_at(int(position))
                assert state.position_of(entity.entity_id) == position
        if cells is None:  # the exhaustive stage returns every live entity
            alive = {e.entity_id for e in shard.entities()}
            assert all({e.entity_id for e in row} == alive for row in found)
            assert len(alive) == len(entities) + 3 - 2


class TestConcurrentLookups:
    @BOTH_STAGES
    def test_lookups_beside_writes_and_compaction(self, cells):
        """``entity()`` / ``vector()`` / ``in`` each read one state: an id
        the writer never removes always resolves, to itself, and an id it
        churns raises nothing but ``KeyError``.  A pinned state stays
        consistent while later writes publish: its live ids are exactly its
        alive rows, each at a distinct position holding that entity."""
        rng = np.random.default_rng(8)
        dim = 8
        stable = make_entities("s", 120)
        shard = EntityShard(stable, rng.normal(size=(120, dim)), cells=cells)
        churned = []
        problems = []
        checks = [0]
        stop = threading.Event()

        def lookups():
            while not stop.is_set():
                for entity in stable[checks[0] % 7::7]:
                    if entity.entity_id not in shard:
                        problems.append(f"{entity.entity_id} missing")
                    if shard.entity(entity.entity_id) is not entity:
                        problems.append(f"{entity.entity_id} resolved elsewhere")
                    if shard.vector(entity.entity_id).shape != (dim,):
                        problems.append(f"{entity.entity_id} vector shape")
                for entity in churned[-20:]:
                    try:
                        entity.entity_id in shard
                        shard.entity(entity.entity_id)
                        shard.vector(entity.entity_id)
                    except KeyError:
                        pass
                state = shard._state
                live = {}
                for entity_id in [*state.id_to_position, *state.moved]:
                    position = state.position_of(entity_id)
                    if position is not None:
                        live[position] = entity_id
                        if state.entity_at(position).entity_id != entity_id:
                            problems.append(f"{entity_id} stale at {position}")
                if sorted(live) != np.flatnonzero(state.alive).tolist():
                    problems.append("live ids disagree with the alive rows")
                checks[0] += 1

        def read():
            try:
                lookups()
            except Exception as error:  # a dead reader must fail the test
                problems.append(f"reader died: {error!r}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over often: more interleavings
        reader = threading.Thread(target=read)
        reader.start()
        try:
            round_ = 0
            while (checks[0] < 300 or round_ < 100) and round_ < 5000 and reader.is_alive():
                batch = make_entities(f"c{round_}", 2)
                churned.extend(batch)
                shard.add(batch, rng.normal(size=(2, dim)))
                shard.update(stable[round_ % 40::40], rng.normal(size=(3, dim)))
                shard.remove([batch[0].entity_id])
                if round_ % 5 == 4:
                    shard.compact()
                round_ += 1
        finally:
            stop.set()
            reader.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not reader.is_alive()
        assert not problems, problems[:5]
        assert checks[0] >= 300
        assert len(shard) == 120 + round_
