"""Synthetic KB enlarger: determinism, structure, and IVF-friendliness."""

import numpy as np
import pytest

from repro.bench import enlarge_kb, synthetic_kb
from repro.eval import recall_at_k
from repro.index import EntityShard, IVFBackend
from repro.kb import Entity


def base_kb(count=20, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    entities = [
        Entity(
            entity_id=f"w:{index}",
            title=f"entity {index}",
            description="d",
            domain="w",
        )
        for index in range(count)
    ]
    return entities, rng.normal(size=(count, dim))


class TestEnlargeKb:
    def test_reaches_target_count_with_unique_ids(self):
        entities, vectors = base_kb()
        out_entities, out_vectors = enlarge_kb(entities, vectors, 137, seed=1)
        assert len(out_entities) == 137
        assert out_vectors.shape == (137, 6)
        assert len({e.entity_id for e in out_entities}) == 137

    def test_base_prefix_is_bit_identical(self):
        entities, vectors = base_kb()
        out_entities, out_vectors = enlarge_kb(entities, vectors, 100, seed=1)
        assert out_entities[:20] == entities
        assert np.array_equal(out_vectors[:20], vectors)

    def test_deterministic(self):
        entities, vectors = base_kb()
        first = enlarge_kb(entities, vectors, 90, seed=5)
        second = enlarge_kb(entities, vectors, 90, seed=5)
        assert first[0] == second[0]
        assert np.array_equal(first[1], second[1])

    def test_aliases_keep_domain_and_description(self):
        entities, vectors = base_kb()
        out_entities, _ = enlarge_kb(entities, vectors, 60, seed=1)
        alias = out_entities[25]  # replica 1 of entity 5
        assert alias.entity_id == "w:5~1"
        assert alias.domain == "w"
        assert alias.description == entities[5].description

    def test_target_below_base_rejected(self):
        entities, vectors = base_kb()
        with pytest.raises(ValueError):
            enlarge_kb(entities, vectors, 5)


class TestSyntheticKb:
    def test_shape_worlds_and_determinism(self):
        entities, vectors = synthetic_kb(500, dim=8, num_base=50, num_worlds=3, seed=2)
        assert len(entities) == 500 and vectors.shape == (500, 8)
        assert {e.domain for e in entities} == {"syn0", "syn1", "syn2"}
        again = synthetic_kb(500, dim=8, num_base=50, num_worlds=3, seed=2)
        assert np.array_equal(vectors, again[1])

    def test_cluster_structure_gives_high_ivf_recall(self):
        """The enlarger's raison d'etre: aliases huddle around base points,
        so IVF recall on a synthetic KB is high at modest nprobe."""
        entities, vectors = synthetic_kb(2000, dim=16, num_base=64, seed=3)
        exact = EntityShard(entities, vectors)
        shard = EntityShard(
            entities, vectors, cells=IVFBackend(num_cells=32, nprobe=8, seed=3)
        )
        queries = np.random.default_rng(4).normal(size=(16, 16))
        recall = recall_at_k(shard.search(queries, k=32), exact.search(queries, k=32))
        assert recall >= 0.9
