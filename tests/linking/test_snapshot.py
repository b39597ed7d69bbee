"""Tests for ShardedEntityIndex snapshots (save / load round trips)."""

import json

import numpy as np
import pytest

from repro.index.snapshot import (
    SNAPSHOT_ARRAYS,
    SNAPSHOT_FORMAT_VERSION,
    SNAPSHOT_MANIFEST,
    write_snapshot,
)
from repro.kb import Entity
from repro.linking import EntityShard, ShardedEntityIndex


def make_entities(world, count):
    return [
        Entity(
            entity_id=f"{world}:{index}",
            title=f"{world} entity {index}",
            description=f"description of {world} {index}",
            domain=world,
        )
        for index in range(count)
    ]


class CountingEmbedder:
    """Deterministic embed_fn that records how often it is called."""

    def __init__(self, dim=6):
        self.dim = dim
        self.calls = []

    def __call__(self, entities):
        self.calls.append([entity.entity_id for entity in entities])
        rng = np.random.default_rng(sum(len(e.entity_id) for e in entities))
        return rng.normal(size=(len(entities), self.dim))


def build_index(embedder):
    index = ShardedEntityIndex(embed_fn=embedder, block_size=4)
    index.add_shard("lego", make_entities("lego", 5))
    index.add_shard("yugioh", make_entities("yugioh", 3))
    index.add_shard("starwars", make_entities("starwars", 4))
    index.add_shard("empty", [])
    return index


class TestSnapshotRoundTrip:
    def test_search_rankings_identical_after_reload(self, tmp_path):
        embedder = CountingEmbedder()
        index = build_index(embedder)
        queries = np.random.default_rng(1).normal(size=(4, 6))
        before = index.search(queries, k=6)  # materialises every shard

        index.save(tmp_path / "snap")
        restored = ShardedEntityIndex.load(tmp_path / "snap")
        after = restored.search(queries, k=6)
        for a, b in zip(before, after):
            # Rankings are identical; scores agree to the last bits (the
            # matmul may differ by ~1 ulp depending on buffer alignment).
            assert a.entity_ids == b.entity_ids
            assert np.allclose(a.scores, b.scores, rtol=0.0, atol=1e-12)

    def test_vectors_round_trip_bit_identical(self, tmp_path):
        embedder = CountingEmbedder()
        index = build_index(embedder)
        index.shard("lego")
        index.save(tmp_path / "snap")
        restored = ShardedEntityIndex.load(tmp_path / "snap")
        assert np.array_equal(
            index.shard("lego").storage, restored.shard("lego").storage
        )

    def test_save_never_materialises(self, tmp_path):
        embedder = CountingEmbedder()
        index = build_index(embedder)
        index.save(tmp_path / "snap")
        assert embedder.calls == []

    def test_cold_shards_stay_cold_and_lazy_after_load(self, tmp_path):
        embedder = CountingEmbedder()
        index = build_index(embedder)
        index.search(np.zeros((1, 6)), k=2, worlds=["lego"])  # warm lego only
        index.save(tmp_path / "snap")

        fresh_embedder = CountingEmbedder()
        restored = ShardedEntityIndex.load(tmp_path / "snap", embed_fn=fresh_embedder)
        assert restored.is_materialized("lego")
        assert not restored.is_materialized("yugioh")
        assert not restored.is_materialized("starwars")
        # Searching a cold shard embeds it on demand through the new embed_fn.
        restored.search(np.zeros((1, 6)), k=2, worlds=["yugioh"])
        assert fresh_embedder.calls == [["yugioh:0", "yugioh:1", "yugioh:2"]]

    def test_shard_order_and_entities_preserved(self, tmp_path):
        index = build_index(CountingEmbedder())
        index.save(tmp_path / "snap")
        restored = ShardedEntityIndex.load(tmp_path / "snap", embed_fn=CountingEmbedder())
        assert restored.worlds() == ["lego", "yugioh", "starwars", "empty"]
        assert len(restored) == len(index)
        assert restored.entity("starwars:2") == index.entity("starwars:2")

    def test_empty_shard_round_trips(self, tmp_path):
        index = build_index(CountingEmbedder())
        index.save(tmp_path / "snap")
        restored = ShardedEntityIndex.load(tmp_path / "snap")
        assert restored.shard("empty") is None
        assert restored.search(np.zeros((1, 6)), k=2, worlds=["empty"])[0].entity_ids == []

    def test_load_without_embed_fn_fails_only_on_cold_search(self, tmp_path):
        embedder = CountingEmbedder()
        index = build_index(embedder)
        index.shard("lego")
        index.save(tmp_path / "snap")
        restored = ShardedEntityIndex.load(tmp_path / "snap")
        # Materialised shards serve immediately ...
        assert len(restored.search(np.zeros((1, 6)), k=2, worlds=["lego"])[0]) == 2
        # ... but a cold shard has no vectors and no way to build them.
        with pytest.raises(ValueError):
            restored.search(np.zeros((1, 6)), k=2, worlds=["yugioh"])

    def test_block_size_and_cache_size_persist_and_override(self, tmp_path):
        index = build_index(CountingEmbedder())
        path = index.save(tmp_path / "snap")
        assert "cache_size" not in json.loads((path / SNAPSHOT_MANIFEST).read_text())
        restored = ShardedEntityIndex.load(tmp_path / "snap")
        assert restored._block_size == 4
        overridden = ShardedEntityIndex.load(tmp_path / "snap", block_size=2)
        assert overridden._block_size == 2

    def test_unsupported_format_version_rejected(self, tmp_path):
        index = build_index(CountingEmbedder())
        path = index.save(tmp_path / "snap")
        manifest = json.loads((path / SNAPSHOT_MANIFEST).read_text())
        manifest["format_version"] = 999
        (path / SNAPSHOT_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
            ShardedEntityIndex.load(path)

    def test_snapshot_files_written(self, tmp_path):
        index = build_index(CountingEmbedder())
        index.shard("lego")  # materialise one shard so arrays exist
        path = index.save(tmp_path / "snap")
        assert (path / SNAPSHOT_MANIFEST).exists()
        manifest = json.loads((path / SNAPSHOT_MANIFEST).read_text())
        assert manifest["format_version"] == SNAPSHOT_FORMAT_VERSION
        # One raw .npy per array (mmap-able), only for the built shard: its
        # storage plus the (here trivial) tombstone mask and pending tail.
        arrays = sorted(p.name for p in (path / SNAPSHOT_ARRAYS).glob("*.npy"))
        assert arrays == [
            "shard_0__main_alive.npy",
            "shard_0__pending_alive.npy",
            "shard_0__pending_vectors.npy",
            "shard_0__storage.npy",
        ]


@pytest.mark.parametrize("materialized", [True, False], ids=["built", "cold"])
def test_load_rejects_an_id_saved_in_two_worlds(tmp_path, materialized):
    records = []
    for world in ("a", "b"):
        entities = make_entities(world, 2) + [Entity("x:1", "t", "d", world)]
        if materialized:
            entry, arrays = EntityShard(entities, np.eye(3)).export()
        else:
            arrays = {}
            entry = {"backend": "exact", "codec": "float64",
                     "entities": [entity.to_dict() for entity in entities]}
        entry.update(world=world, materialized=materialized)
        records.append((entry, arrays))
    write_snapshot(tmp_path / "snap", {"block_size": 4}, records)
    with pytest.raises(ValueError, match="x:1"):
        ShardedEntityIndex.load(tmp_path / "snap")
