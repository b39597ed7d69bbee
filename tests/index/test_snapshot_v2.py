"""Version-2 snapshots: entries, mmap, live shard state, generations."""

import json
import shutil

import numpy as np
import pytest

from repro.index import (
    IVFBackend,
    compact_to_generation,
    current_generation,
    list_generations,
    write_generation,
)
from repro.index.snapshot import (
    SNAPSHOT_ARRAYS,
    SNAPSHOT_ARRAYS_OLD,
    SNAPSHOT_ARRAYS_TOKEN,
    SNAPSHOT_MANIFEST,
)
from repro.kb import Entity
from repro.linking import ShardedEntityIndex


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


def build_index(backend=None, seed=0, dim=12):
    rng = np.random.default_rng(seed)
    entities = make_entities("alpha", 50) + make_entities("beta", 30)
    table = {e.entity_id: rng.normal(size=dim) for e in entities}
    embed = lambda chunk: np.stack([table[e.entity_id] for e in chunk])
    index = ShardedEntityIndex.from_entities(entities, embed_fn=embed, backend=backend)
    for world in index.worlds():
        index.shard(world)
    return index


@pytest.fixture
def queries():
    return np.random.default_rng(2).normal(size=(6, 12))


class TestSnapshotEntries:
    def test_exact_index_round_trips_bit_identically(self, tmp_path, queries):
        index = build_index()
        index.save(tmp_path / "snap")
        restored = ShardedEntityIndex.load(tmp_path / "snap")
        for world in index.worlds():
            assert np.array_equal(index.shard(world).storage, restored.shard(world).storage)
        for a, b in zip(index.search(queries, k=8), restored.search(queries, k=8)):
            assert a.entity_ids == b.entity_ids
            assert a.scores == b.scores

    def test_non_float64_codec_fails_with_clear_error(self, tmp_path):
        """Embeddings are float64 only; an entry naming another codec (as
        earlier builds could write) is refused, naming the codec and path."""
        index = build_index()
        path = index.save(tmp_path / "snap")
        manifest = json.loads((path / SNAPSHOT_MANIFEST).read_text())
        manifest["shards"][1]["codec"] = "int8"
        (path / SNAPSHOT_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="int8") as error:
            ShardedEntityIndex.load(path, mmap=True)
        assert str(path) in str(error.value)

    def test_unknown_backend_fails_with_clear_error(self, tmp_path):
        index = build_index()
        path = index.save(tmp_path / "snap")
        manifest = json.loads((path / SNAPSHOT_MANIFEST).read_text())
        manifest["shards"][0]["backend"] = "hnsw"
        (path / SNAPSHOT_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="hnsw"):
            ShardedEntityIndex.load(path)


class TestMmapLoading:
    def test_mmap_load_searches_identically(self, tmp_path, queries):
        index = build_index()
        index.save(tmp_path / "snap")
        in_ram = ShardedEntityIndex.load(tmp_path / "snap")
        mapped = ShardedEntityIndex.load(tmp_path / "snap", mmap=True)
        for a, b in zip(in_ram.search(queries, k=8), mapped.search(queries, k=8)):
            assert a.entity_ids == b.entity_ids
            assert np.allclose(a.scores, b.scores, atol=1e-12)

    def test_mmap_arrays_are_memory_mapped_and_read_only(self, tmp_path):
        index = build_index()
        index.save(tmp_path / "snap")
        mapped = ShardedEntityIndex.load(tmp_path / "snap", mmap=True)
        vectors = mapped.shard("alpha").storage
        assert isinstance(vectors, np.memmap)
        assert not vectors.flags.writeable

    def test_mmap_exhaustive_shard_stays_lazy(self, tmp_path, queries):
        """A snapshot loaded without a backend is scanned block by block:
        searching keeps the memory map and never copies the matrix."""
        index = build_index()
        index.save(tmp_path / "snap")
        mapped = ShardedEntityIndex.load(tmp_path / "snap", mmap=True)
        shard = mapped.shard("alpha")
        storage = shard.storage
        assert isinstance(storage, np.memmap)
        results = mapped.search(queries, k=8, worlds=["alpha"])
        assert shard.storage is storage
        # Ranks equal a brute-force ranking of the whole matrix.
        scores = queries @ np.asarray(storage).T
        members = shard.entities()
        for result, row in zip(results, scores):
            order = np.lexsort((np.arange(len(row)), -row))[:8]
            assert result.entity_ids == [members[i].entity_id for i in order]

    def test_mmap_index_still_updatable(self, tmp_path):
        """update() on a mapped shard lands in the in-RAM tail, never writes
        through to the snapshot files."""
        index = build_index()
        path = index.save(tmp_path / "snap")
        mapped = ShardedEntityIndex.load(tmp_path / "snap", mmap=True)
        target = mapped.entity("alpha:0")
        mapped.update_entities([target], np.full((1, 12), 3.0))
        assert np.allclose(mapped.vector("alpha:0"), 3.0)
        # The on-disk snapshot is untouched.
        fresh = ShardedEntityIndex.load(path)
        assert not np.allclose(fresh.vector("alpha:0"), 3.0)


class TestLiveStateSnapshots:
    @pytest.mark.parametrize(
        "backend", [None, IVFBackend(nprobe=4)], ids=["exhaustive", "celled"]
    )
    def test_ivf_round_trip_with_pending_and_tombstones(self, tmp_path, queries, backend):
        index = build_index(backend=backend)
        index.add_entities(
            [Entity(entity_id="alpha:new", title="n", description="d", domain="alpha")],
            np.full((1, 12), 4.0),
        )
        index.remove_entities(["beta:3"])
        index.save(tmp_path / "snap")

        restored = ShardedEntityIndex.load(tmp_path / "snap", mmap=True)
        shard = restored.shard("alpha")
        assert shard.num_pending == 1
        assert restored.shard("beta").num_tombstones == 1
        assert "alpha:new" in restored
        assert "beta:3" not in restored
        assert len(restored) == len(index) == 80
        for a, b in zip(index.search(queries, k=10), restored.search(queries, k=10)):
            assert a.entity_ids == b.entity_ids
            assert a.scores == b.scores

    def test_ivf_snapshot_restores_as_ivf_without_backend_arg(self, tmp_path):
        index = build_index(backend=IVFBackend(nprobe=2))
        index.save(tmp_path / "snap")
        restored = ShardedEntityIndex.load(tmp_path / "snap")
        stats = restored.shard("alpha").stats()
        assert stats["backend"] == "ivf"
        assert stats["nprobe"] == 2

    def test_exact_snapshot_rebuilds_under_ivf_backend(self, tmp_path, queries):
        index = build_index()
        index.save(tmp_path / "snap")
        rebuilt = ShardedEntityIndex.load(
            tmp_path / "snap", backend=IVFBackend(nprobe=10**9)
        )
        assert rebuilt.shard("alpha").stats()["backend"] == "ivf"
        for a, b in zip(index.search(queries, k=8), rebuilt.search(queries, k=8)):
            assert a.entity_ids == b.entity_ids


class TestGenerationStore:
    def test_write_and_resolve_current(self, tmp_path, queries):
        index = build_index()
        store = tmp_path / "store"
        first = write_generation(index, store)
        assert first.name == "gen-00000001"
        assert current_generation(store) == first

        # Loading the store root resolves CURRENT transparently.
        restored = ShardedEntityIndex.load(store)
        for a, b in zip(index.search(queries, k=5), restored.search(queries, k=5)):
            assert a.entity_ids == b.entity_ids

    def test_generations_accumulate_and_current_advances(self, tmp_path):
        index = build_index()
        store = tmp_path / "store"
        write_generation(index, store)
        second = write_generation(index, store)
        assert [p.name for p in list_generations(store)] == [
            "gen-00000001",
            "gen-00000002",
        ]
        assert current_generation(store) == second

    def test_compact_to_generation_folds_pending(self, tmp_path):
        index = build_index(backend=IVFBackend(nprobe=4))
        index.add_entities(
            [Entity(entity_id="alpha:new", title="n", description="d", domain="alpha")],
            np.full((1, 12), 4.0),
        )
        store = tmp_path / "store"
        compact_to_generation(index, store)
        restored = ShardedEntityIndex.load(store)
        shard = restored.shard("alpha")
        assert shard.num_pending == 0
        assert "alpha:new" in restored

    def test_empty_store_has_no_current(self, tmp_path):
        assert current_generation(tmp_path / "missing") is None

    def test_corrupt_marker_raises(self, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        (store / "CURRENT").write_text("gen-00000009")
        with pytest.raises(ValueError, match="missing generation"):
            current_generation(store)


class TestCrashSafeResave:
    def test_resave_over_existing_snapshot_round_trips(self, tmp_path, queries):
        index = build_index()
        snap = tmp_path / "snap"
        index.save(snap)
        index.save(snap)  # in-place re-save over committed data
        assert not (snap / SNAPSHOT_ARRAYS_OLD).exists()
        restored = ShardedEntityIndex.load(snap)
        for a, b in zip(index.search(queries, k=8), restored.search(queries, k=8)):
            assert a.entity_ids == b.entity_ids

    def test_interrupted_resave_falls_back_to_committed_arrays(
        self, tmp_path, queries
    ):
        """Crash window: new arrays swapped in, manifest rename never ran.
        The committed manifest's token no longer matches arrays/, so load()
        must fall back to the parked arrays.old it does match."""
        index = build_index()
        snap = tmp_path / "snap"
        index.save(snap)
        before = index.search(queries, k=8)
        (snap / SNAPSHOT_ARRAYS).rename(snap / SNAPSHOT_ARRAYS_OLD)
        uncommitted = snap / SNAPSHOT_ARRAYS
        uncommitted.mkdir()
        (uncommitted / SNAPSHOT_ARRAYS_TOKEN).write_text("not-the-committed-token")
        restored = ShardedEntityIndex.load(snap)
        for a, b in zip(before, restored.search(queries, k=8)):
            assert a.entity_ids == b.entity_ids

    def test_interrupted_resave_with_arrays_missing_recovers(self, tmp_path, queries):
        """Crash window: committed arrays parked aside, replacement rename
        never ran — arrays/ is absent entirely."""
        index = build_index()
        snap = tmp_path / "snap"
        index.save(snap)
        before = index.search(queries, k=8)
        (snap / SNAPSHOT_ARRAYS).rename(snap / SNAPSHOT_ARRAYS_OLD)
        restored = ShardedEntityIndex.load(snap)
        for a, b in zip(before, restored.search(queries, k=8)):
            assert a.entity_ids == b.entity_ids

    def test_no_matching_arrays_is_a_clear_error(self, tmp_path):
        index = build_index()
        snap = tmp_path / "snap"
        index.save(snap)
        shutil.rmtree(snap / SNAPSHOT_ARRAYS)
        with pytest.raises(ValueError, match="arrays_token"):
            ShardedEntityIndex.load(snap)


class TestEarlierLayouts:
    """Snapshots written before exhaustive shards carried a tail: laid out by
    hand here from the manifest keys and array names those builds wrote."""

    def write_parent_layout(self, path, dim=12):
        rng = np.random.default_rng(5)
        worlds = {name: make_entities(name, 20) for name in ("f64", "ivf", "cold")}
        vectors = {name: rng.normal(size=(20, dim)) for name in ("f64", "ivf")}
        arrays_dir = path / SNAPSHOT_ARRAYS
        arrays_dir.mkdir(parents=True)
        exact = {"backend": "exact", "materialized": True}
        shards = [
            {"world": "f64", "codec": "float64", **exact,
             "entities": [e.to_dict() for e in worlds["f64"]]},
        ]
        np.save(arrays_dir / "shard_0.npy", vectors["f64"])

        # Three hand-made cells over 20 main rows, row 4 tombstoned, and a
        # two-row pending tail whose first row is tombstoned.
        assignments = np.arange(20) % 3
        tail = make_entities("ivf-tail", 2)
        tail = [Entity(e.entity_id, e.title, e.description, "ivf") for e in tail]
        tail_vectors = rng.normal(size=(2, dim))
        main_alive = np.ones(20, dtype=bool)
        main_alive[4] = False
        ivf_arrays = {
            "centroids": np.stack([vectors["ivf"][assignments == c].mean(axis=0) for c in range(3)]),
            "members": np.argsort(assignments, kind="stable").astype(np.int64),
            "offsets": np.concatenate([[0], np.cumsum(np.bincount(assignments))]).astype(np.int64),
            "main_alive": main_alive,
            "pending_vectors": tail_vectors,
            "pending_alive": np.array([False, True]),
            "storage": vectors["ivf"],
        }
        for key, array in ivf_arrays.items():
            np.save(arrays_dir / f"shard_1__{key}.npy", array)
        shards.append({
            "backend": "ivf", "codec": "float64", "nprobe": 3, "num_cells": 3,
            "num_cells_config": 3, "seed": 0, "kmeans_iters": 8, "generation": 2,
            "entities": [e.to_dict() for e in worlds["ivf"]],
            "pending_entities": [e.to_dict() for e in tail],
            "world": "ivf", "materialized": True,
        })
        shards.append({"world": "cold", "backend": "exact", "codec": "float64",
                       "materialized": False,
                       "entities": [e.to_dict() for e in worlds["cold"]]})
        (arrays_dir / SNAPSHOT_ARRAYS_TOKEN).write_text("by-hand")
        manifest = {"format_version": 2, "block_size": 8, "cache_size": 16,
                    "shards": shards, "arrays_token": "by-hand"}
        (path / SNAPSHOT_MANIFEST).write_text(json.dumps(manifest))
        live = {
            "f64": (worlds["f64"], vectors["f64"]),
            "ivf": (
                [e for i, e in enumerate(worlds["ivf"]) if i != 4] + tail[1:],
                np.concatenate([np.delete(vectors["ivf"], 4, axis=0), tail_vectors[1:]]),
            ),
        }
        return live

    @pytest.mark.parametrize("mmap", [False, True], ids=["ram", "mmap"])
    def test_parent_written_layout_loads_and_ranks_identically(self, tmp_path, mmap):
        live = self.write_parent_layout(tmp_path / "snap")
        restored = ShardedEntityIndex.load(tmp_path / "snap", mmap=mmap)
        assert restored.worlds() == ["f64", "ivf", "cold"]
        assert not restored.is_materialized("cold") and len(restored) == 20 * 3
        ivf = restored.shard("ivf")
        assert (ivf.generation, ivf.num_pending, ivf.num_tombstones) == (2, 1, 2)
        assert ivf.stats()["backend"] == "ivf" and ivf.stats()["nprobe"] == 3
        queries = np.random.default_rng(6).normal(size=(5, 12))
        for world, (members, matrix) in live.items():
            for result, row in zip(restored.search(queries, k=7, worlds=[world]), queries @ matrix.T):
                order = np.lexsort((np.arange(len(row)), -row))[:7]
                assert result.entity_ids == [members[i].entity_id for i in order]
                assert np.allclose(result.scores, row[order], rtol=0.0, atol=1e-12)

    def test_version1_npz_snapshot_is_refused_with_a_clear_error(self, tmp_path):
        path = tmp_path / "snap-v1"
        path.mkdir()
        shard = {"world": "w", "materialized": True,
                 "entities": [e.to_dict() for e in make_entities("w", 3)]}
        manifest = {"format_version": 1, "block_size": 4, "cache_size": 16, "shards": [shard]}
        (path / SNAPSHOT_MANIFEST).write_text(json.dumps(manifest))
        np.savez(path / "vectors.npz", shard_0=np.eye(3))
        with pytest.raises(ValueError, match="unsupported snapshot format version 1.*re-saved"):
            ShardedEntityIndex.load(path)
