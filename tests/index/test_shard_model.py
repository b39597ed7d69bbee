"""Model-based test: the index against a dict-of-vectors brute-force oracle.

One hypothesis state machine drives add / remove / update / compact and
save → load (plain, memory-mapped, and after an interrupted in-place re-save)
on three :class:`ShardedEntityIndex` instances holding the same content, one
per way a shard can search:

* ``exhaustive`` (no backend) and ``full-probe`` (every cell probed) must
  return exactly the oracle's top-k, in order, with the oracle's entities;
* ``partial-probe`` (one cell of four) may miss candidates, but whatever it
  returns must be live, carry its true inner product and be ranked.

The oracle is a plain ``{world: {entity_id: (entity, vector)}}`` dictionary
searched by a full matrix product, so it shares no code with the index.
Vectors come from a seeded numpy generator (hypothesis only picks the
operations), which keeps scores free of exact ties.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.index import IVFBackend
from repro.index.snapshot import SNAPSHOT_ARRAYS, SNAPSHOT_ARRAYS_OLD, SNAPSHOT_ARRAYS_TOKEN
from repro.kb import Entity
from repro.linking import ShardedEntityIndex

DIM = 6
WORLDS = ("a", "b")
BACKENDS = {
    "exhaustive": None,
    "full-probe": IVFBackend(num_cells=4, nprobe=4),
    "partial-probe": IVFBackend(num_cells=4, nprobe=1),
}
QUERIES = np.random.default_rng(99).normal(size=(3, DIM))


class IndexAgainstOracle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.rng = np.random.default_rng(7)
        self.scratch = Path(tempfile.mkdtemp(prefix="shard-model-"))
        self.saves = 0
        self.minted = 0
        self.revision = 0
        self.live = {world: {} for world in WORLDS}
        self.removed = set()
        self.indexes = {}

    def teardown(self):
        shutil.rmtree(self.scratch, ignore_errors=True)

    # -- helpers --------------------------------------------------------
    def mint(self, world, count):
        fresh = [
            Entity(f"{world}:{self.minted + i}", f"{world} {self.minted + i}", "v0", world)
            for i in range(count)
        ]
        self.minted += count
        return fresh

    def pick(self, data, limit=4):
        """A few live entities, drawn by hypothesis, across both worlds."""
        everyone = [entry[0] for world in WORLDS for entry in self.live[world].values()]
        return data.draw(
            st.lists(st.sampled_from(everyone), min_size=1, max_size=limit, unique=True)
        )

    def has_live(self):
        return any(self.live[world] for world in WORLDS)

    # -- rules ----------------------------------------------------------
    @initialize()
    def build(self):
        for name, backend in BACKENDS.items():
            self.indexes[name] = ShardedEntityIndex(block_size=5, backend=backend)
        for world in WORLDS:
            members = self.mint(world, 9)
            vectors = self.rng.normal(size=(len(members), DIM))
            for index in self.indexes.values():
                index.add_shard(world, members, vectors)
            self.live[world] = {e.entity_id: (e, v) for e, v in zip(members, vectors)}

    @rule(world=st.sampled_from(WORLDS), count=st.integers(1, 3))
    def add(self, world, count):
        members = self.mint(world, count)
        vectors = self.rng.normal(size=(count, DIM))
        for index in self.indexes.values():
            index.add_entities(members, vectors)
        self.live[world].update({e.entity_id: (e, v) for e, v in zip(members, vectors)})

    @precondition(has_live)
    @rule(data=st.data())
    def remove(self, data):
        victims = self.pick(data)
        for index in self.indexes.values():
            index.remove_entities([e.entity_id for e in victims])
        for entity in victims:
            del self.live[entity.domain][entity.entity_id]
            self.removed.add(entity.entity_id)

    @precondition(has_live)
    @rule(data=st.data())
    def update(self, data):
        self.revision += 1
        fresh = [
            Entity(e.entity_id, e.title, f"v{self.revision}", e.domain)
            for e in self.pick(data)
        ]
        vectors = self.rng.normal(size=(len(fresh), DIM))
        for index in self.indexes.values():
            index.update_entities(fresh, vectors)
        for entity, vector in zip(fresh, vectors):
            self.live[entity.domain][entity.entity_id] = (entity, vector)

    @rule()
    def compact(self):
        for index in self.indexes.values():
            index.compact()

    @rule(mode=st.sampled_from(["plain", "mmap", "interrupted"]))
    def save_and_load(self, mode):
        for name, index in self.indexes.items():
            self.saves += 1
            snap = self.scratch / f"snap-{self.saves}"
            index.save(snap)
            if mode == "interrupted":
                index.save(snap)  # an in-place re-save that commits ...
                # ... then one that dies after swapping its arrays in, before
                # its manifest is renamed: the committed arrays sit parked.
                (snap / SNAPSHOT_ARRAYS).rename(snap / SNAPSHOT_ARRAYS_OLD)
                (snap / SNAPSHOT_ARRAYS).mkdir()
                (snap / SNAPSHOT_ARRAYS / SNAPSHOT_ARRAYS_TOKEN).write_text("uncommitted")
            self.indexes[name] = ShardedEntityIndex.load(snap, mmap=(mode == "mmap"))

    # -- the oracle -----------------------------------------------------
    @invariant()
    def agrees_with_the_oracle(self):
        if not self.indexes:
            return
        for name, index in self.indexes.items():
            assert len(index) == sum(len(self.live[world]) for world in WORLDS)
            assert not any(entity_id in index for entity_id in self.removed)
            for worlds in (None, ["a"], ["b"]):
                entries = [
                    entry
                    for world in (worlds or WORLDS)
                    for entry in self.live[world].values()
                ]
                truth = {entity.entity_id: (entity, vector) for entity, vector in entries}
                for k in (1, 5, 64):
                    results = index.search(QUERIES, k, worlds=worlds)
                    for result, query in zip(results, QUERIES):
                        self.check(name, result, query, truth, k)

    def check(self, name, result, query, truth, k):
        assert len(set(result.entity_ids)) == len(result) <= k
        assert [entity.entity_id for entity in result.entities] == result.entity_ids
        assert all(a >= b for a, b in zip(result.scores, result.scores[1:]))
        for entity_id, score, entity in zip(result.entity_ids, result.scores, result.entities):
            assert entity_id in truth, f"{name} returned {entity_id}, which is not live"
            assert entity == truth[entity_id][0]
            assert abs(score - float(truth[entity_id][1] @ query)) <= 1e-9
        if name != "partial-probe":
            ranked = sorted(truth, key=lambda i: -float(truth[i][1] @ query))[:k]
            assert result.entity_ids == ranked


IndexAgainstOracle.TestCase.settings = settings(
    max_examples=20, stateful_step_count=20, deadline=None
)
TestIndexAgainstOracle = IndexAgainstOracle.TestCase
