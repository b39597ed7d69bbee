"""Unit tests for the sharded entity index and blocked top-k."""

import threading

import numpy as np
import pytest

from repro.kb import Entity
from repro.linking import (
    EntityShard,
    RetrievalResult,
    ShardedEntityIndex,
    blocked_topk,
)


def make_entities(world, count, start=0):
    return [
        Entity(
            entity_id=f"{world}:{index}",
            title=f"{world} entity {index}",
            description=f"description of {world} {index}",
            domain=world,
        )
        for index in range(start, start + count)
    ]


class TestRetrievalResult:
    def test_rank_of_and_contains_are_dict_backed(self):
        result = RetrievalResult(entity_ids=["a", "b", "c"], scores=[3.0, 2.0, 1.0])
        assert result.contains("b")
        assert not result.contains("z")
        assert result.rank_of("a") == 0
        assert result.rank_of("c") == 2
        assert result.rank_of("z") is None
        assert result._rank_by_id == {"a": 0, "b": 1, "c": 2}

    def test_duplicate_ids_keep_first_rank(self):
        result = RetrievalResult(entity_ids=["a", "a"], scores=[1.0, 1.0])
        assert result.rank_of("a") == 0

    def test_top_id_and_len(self):
        assert RetrievalResult([], []).top_id is None
        assert RetrievalResult(["x"], [0.5]).top_id == "x"
        assert len(RetrievalResult(["x", "y"], [0.5, 0.4])) == 2


class TestBlockedTopk:
    def test_matches_full_sort_across_blocks(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(57, 8))
        queries = rng.normal(size=(5, 8))
        scores, positions = blocked_topk(queries, vectors, k=7, block_size=10)
        full = queries @ vectors.T
        for row in range(len(queries)):
            expected = np.sort(full[row])[::-1][:7]
            assert np.allclose(scores[row], expected)
            assert np.allclose(full[row][positions[row]], scores[row])

    def test_tie_breaking_prefers_lower_position(self):
        vectors = np.ones((6, 4))  # all entities score identically
        queries = np.ones((2, 4))
        _, positions = blocked_topk(queries, vectors, k=6, block_size=2)
        assert positions.tolist() == [[0, 1, 2, 3, 4, 5]] * 2

    def test_tie_breaking_exact_across_block_boundaries(self):
        # Regression: with many tied candidates spanning several blocks, the
        # selected subset itself must prefer the lowest positions — not just
        # sort whatever an arbitrary partition kept.
        vectors = np.ones((300, 4))
        scores, positions = blocked_topk(np.ones((1, 4)), vectors, k=2, block_size=64)
        assert positions.tolist() == [[0, 1]]
        assert np.allclose(scores, 4.0)

    def test_k_clamped_to_num_entities(self):
        vectors = np.eye(3)
        scores, positions = blocked_topk(np.eye(3)[:1], vectors, k=10)
        assert scores.shape == (1, 3)
        assert positions[0, 0] == 0


class TestEntityShardBlocked:
    def test_search_is_deterministic_across_calls(self):
        entities = make_entities("lego", 20)
        rng = np.random.default_rng(3)
        index = EntityShard(entities, rng.normal(size=(20, 6)), block_size=4)
        queries = rng.normal(size=(4, 6))
        first = index.search(queries, k=5)
        second = index.search(queries, k=5)
        for a, b in zip(first, second):
            assert a.entity_ids == b.entity_ids
            assert a.scores == b.scores

    def test_k_larger_than_index_returns_everything(self):
        entities = make_entities("lego", 4)
        index = EntityShard(entities, np.eye(4))
        result = index.search(np.eye(4)[:1], k=64)[0]
        assert len(result) == 4

    def test_contains(self):
        entities = make_entities("lego", 3)
        index = EntityShard(entities, np.eye(3))
        assert "lego:1" in index
        assert "other:1" not in index


class TestShardedEntityIndex:
    def build(self):
        index = ShardedEntityIndex()
        index.add_shard("lego", make_entities("lego", 5), np.eye(5))
        index.add_shard("yugioh", make_entities("yugioh", 3), np.eye(3, 5) * 0.5)
        return index

    def test_worlds_and_len(self):
        index = self.build()
        assert index.worlds() == ["lego", "yugioh"]
        assert len(index) == 8
        assert index.num_shards == 2

    def test_empty_shard_contributes_no_candidates(self):
        index = self.build()
        index.add_shard("starwars", [])
        assert index.shard("starwars") is None
        results = index.search(np.eye(5)[:2], k=4)
        assert all(len(result) == 4 for result in results)
        results = index.search(np.eye(5)[:1], k=4, worlds=["starwars"])
        assert results[0].entity_ids == []
        assert results[0].scores == []

    def test_all_empty_shards_return_empty_results(self):
        index = ShardedEntityIndex()
        index.add_shard("empty", [])
        results = index.search(np.zeros((3, 5)), k=8)
        assert len(results) == 3
        assert all(result.entity_ids == [] for result in results)

    def test_k_larger_than_total_entities(self):
        index = self.build()
        result = index.search(np.ones((1, 5)), k=100)[0]
        assert len(result) == 8  # every entity of every shard

    def test_merge_tie_breaking_is_deterministic(self):
        index = ShardedEntityIndex()
        index.add_shard("alpha", make_entities("alpha", 2), np.ones((2, 3)))
        index.add_shard("beta", make_entities("beta", 2), np.ones((2, 3)))
        result = index.search(np.ones((1, 3)), k=4)[0]
        # Equal scores: shard insertion order first, then entity position.
        assert result.entity_ids == ["alpha:0", "alpha:1", "beta:0", "beta:1"]
        repeat = index.search(np.ones((1, 3)), k=4)[0]
        assert repeat.entity_ids == result.entity_ids

    def test_routed_search_groups_by_world(self):
        index = self.build()
        queries = np.eye(5)[:3]
        routed = index.search_routed(queries, k=2, routes=["lego", "yugioh", None])
        assert all(eid.startswith("lego:") for eid in routed[0].entity_ids)
        assert all(eid.startswith("yugioh:") for eid in routed[1].entity_ids)
        # The unrouted query falls back to a fan-out over all shards.
        fan_out = index.search(queries[2:], k=2)[0]
        assert routed[2].entity_ids == fan_out.entity_ids

    def test_routed_results_are_independent_instances(self):
        # Regression: the pre-fill placeholder list was built as
        # ``[RetrievalResult([], [])] * n`` — one shared mutable instance
        # replicated n times.  Every returned result must be its own object.
        index = self.build()
        index.add_shard("void", [])
        results = index.search_routed(np.zeros((3, 5)), k=2, routes=["void"] * 3)
        assert all(result.entity_ids == [] for result in results)
        assert len({id(result) for result in results}) == 3
        results[0].entity_ids.append("mutated")
        assert results[1].entity_ids == [] and results[2].entity_ids == []

    def test_routed_search_alignment_validated(self):
        index = self.build()
        with pytest.raises(ValueError):
            index.search_routed(np.eye(5)[:2], k=2, routes=["lego"])

    def test_routed_search_unknown_world_falls_back(self):
        index = self.build()
        routed = index.search_routed(np.eye(5)[:1], k=3, routes=["atlantis"])
        fan_out = index.search(np.eye(5)[:1], k=3)
        assert routed[0].entity_ids == fan_out[0].entity_ids

    def test_unknown_world_in_search_raises(self):
        index = self.build()
        with pytest.raises(KeyError):
            index.search(np.eye(5)[:1], k=2, worlds=["atlantis"])

    def test_a_world_named_twice_is_an_error(self):
        index = self.build()
        with pytest.raises(ValueError, match="more than once"):
            index.search(np.eye(5)[:1], k=4, worlds=["lego", "lego"])

    def test_duplicate_shard_rejected(self):
        index = self.build()
        with pytest.raises(ValueError):
            index.add_shard("lego", make_entities("lego", 2))

    def test_lazy_shard_built_on_first_search(self):
        calls = []

        def embed_fn(entities):
            calls.append(len(entities))
            return np.eye(len(entities), 4)

        index = ShardedEntityIndex(embed_fn=embed_fn)
        index.add_shard("lego", make_entities("lego", 4))
        index.add_shard("yugioh", make_entities("yugioh", 2))
        assert not index.is_materialized("lego")
        assert calls == []
        index.search(np.eye(4)[:1], k=2, worlds=["lego"])
        assert calls == [4]  # only the routed shard was embedded
        assert index.is_materialized("lego")
        assert not index.is_materialized("yugioh")
        index.search(np.eye(4)[:1], k=2, worlds=["lego"])
        assert calls == [4]  # materialisation happens exactly once

    def test_a_cold_world_reached_by_a_reader_and_a_writer_is_built_once(self):
        entered, release = threading.Event(), threading.Event()
        calls = []

        def embed_fn(entities):
            calls.append(len(entities))
            entered.set()
            assert release.wait(10)
            return np.eye(len(entities), 4)

        index = ShardedEntityIndex(embed_fn=embed_fn)
        index.add_shard("lego", make_entities("lego", 3))
        added = make_entities("lego", 1, start=3)
        reader = threading.Thread(
            target=index.search, args=(np.eye(4)[:1], 2), kwargs={"worlds": ["lego"]}
        )
        writer = threading.Thread(target=index.add_entities, args=(added, np.ones((1, 4))))
        reader.start()
        assert entered.wait(10)
        writer.start()
        writer.join(timeout=0.2)  # the writer reaches the world mid-build
        release.set()
        for thread in (reader, writer):
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert calls == [3]
        assert "lego:3" in index.shard("lego")
        assert index.search(np.ones((1, 4)), k=1, worlds=["lego"])[0].top_id == "lego:3"

    def test_lazy_shard_without_embed_fn_raises(self):
        index = ShardedEntityIndex()
        index.add_shard("lego", make_entities("lego", 2))
        with pytest.raises(ValueError):
            index.shard("lego")

    def test_vector_lookup_uses_lru_cache(self):
        index = self.build()
        assert np.allclose(index.vector("lego:0"), np.eye(5)[0])
        assert np.allclose(index.vector("yugioh:2"), np.eye(3, 5)[2] * 0.5)

    def test_an_id_indexed_in_another_world_is_rejected(self):
        index = self.build()
        stray = Entity(entity_id="lego:1", title="t", description="d", domain="other")
        with pytest.raises(ValueError, match="lego:1"):
            index.add_shard("other", make_entities("other", 1) + [stray], np.eye(2, 5))
        assert index.worlds() == ["lego", "yugioh"] and "other:0" not in index
        index.remove_entities(["lego:1"])
        found = index.search(np.eye(5)[1:2], k=8)[0].entity_ids
        assert "lego:1" not in index and "lego:1" not in found and len(found) == 7
        with pytest.raises(ValueError, match="a:1"):
            ShardedEntityIndex.from_entities(
                make_entities("a", 2) + [Entity("a:1", "t", "d", "b")]
            )

    def test_an_update_cannot_move_an_entity_to_another_world(self):
        index = self.build()
        states = {world: index.shard(world)._state for world in index.worlds()}
        moved = Entity(entity_id="lego:1", title="t", description="d", domain="yugioh")
        with pytest.raises(ValueError, match="lego:1"):
            index.update_entities(make_entities("yugioh", 1) + [moved], np.ones((2, 5)))
        assert all(index.shard(world)._state is state for world, state in states.items())
        assert index.entity("lego:1").domain == "lego"

    def test_entity_and_contains(self):
        index = self.build()
        assert index.entity("yugioh:1").domain == "yugioh"
        assert "yugioh:1" in index
        assert "yugioh:9" not in index

    def test_from_entities_groups_by_domain(self):
        entities = make_entities("lego", 3) + make_entities("yugioh", 2)
        index = ShardedEntityIndex.from_entities(entities, embed_fn=lambda e: np.eye(len(e), 4))
        assert index.worlds() == ["lego", "yugioh"]
        assert len(index) == 5

    def test_search_rejects_non_positive_k(self):
        index = self.build()
        with pytest.raises(ValueError):
            index.search(np.eye(5)[:1], k=0)
