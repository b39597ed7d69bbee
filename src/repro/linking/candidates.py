"""Dense candidate generation: the per-world sharded entity index.

The bi-encoder embeds every entity of a domain once; mentions are then linked
by maximum inner product against this index (the paper's candidate generation
stage, evaluated with Recall@64).  The search itself — blocked top-k, coarse
cells, the pending tail, mutation, snapshots of one shard — is
:class:`repro.index.EntityShard`; this module is the layer above it:

:class:`ShardedEntityIndex`
    One shard per world (domain), the unit of scale in the Zeshel setting.
    It owns *routing and merging only*: which world a query or an entity goes
    to, the fan-out merge across worlds, and the worlds that are still
    *cold* — registered, but not yet embedded (``embed_fn`` runs on
    first use) or not yet built.  A materialised world is one
    :class:`~repro.index.EntityShard` and nothing else; the index keeps no
    copy of its entities or vectors.

Usage::

    index = ShardedEntityIndex.from_entities(entities, embed_fn=model.embed_entities)
    results = index.search(query_vectors, k=64, worlds=["lego"])
    results[0].rank_of(gold_id)   # rank map built on first call, O(1) after
    results[0].entities           # the candidates, resolved by the search

A fan-out over two or more shards that each span more than one scan block
runs their scans on the caller and on helper threads together (see
:meth:`ShardedEntityIndex.search`); the merge, and so every result, is the
same as scanning them one after another.

Tie-breaking is deterministic everywhere: candidates with equal scores are
ordered by their position in the shard (and, across shards, by shard
insertion order first), so repeated searches always return identical
rankings.  Snapshots are the version-2 directory format of
:mod:`repro.index.snapshot`.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..index import (
    DEFAULT_BLOCK_SIZE,
    EntityShard,
    IVFBackend,
    RetrievalResult,
    build_results,
    read_snapshot,
    write_snapshot,
)
from ..index.shard import _sorted_topk, reject_repeated_ids
from ..kb.entity import Entity

EmbedFn = Callable[[Sequence[Entity]], np.ndarray]

#: A world that is registered but not built: its entities and, once known,
#: their vectors (``None`` until ``embed_fn`` has run).
ColdShard = Tuple[List[Entity], Optional[np.ndarray]]

#: One shard's ``search_arrays`` result: ``(scores, positions, entities)``.
Block = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _spare_cpus() -> int:
    """CPUs this process may run on, besides the one calling."""
    affinity = getattr(os, "sched_getaffinity", None)
    usable = len(affinity(0)) if affinity is not None else os.cpu_count() or 1
    return max(0, usable - 1)


class _ScanHelpers:
    """The process's fan-out helper threads, shared by every index.

    ``size`` threads at most (one per spare CPU), started on the first
    parallel fan-out; a process that never fans out over large shards never
    starts one.  One pool per process, not per index: helpers exist to use
    idle CPUs, and replicas each holding an index must not multiply them.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None

    def lend(self, task: Callable[[], None], count: int) -> None:
        """Queue ``task`` for ``count`` helpers; returns without waiting."""
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    self.size, thread_name_prefix="repro-fanout"
                )
            executor = self._executor
        for _ in range(count):
            # Nobody reads these futures: a fan-out's scan never raises (a
            # scan's error reaches its caller through _FanOut.blocks).
            executor.submit(task)


_HELPERS = _ScanHelpers(_spare_cpus())


class _FanOut:
    """One fan-out's shard scans, claimed largest shard first from one list
    by the caller and by helpers alike.

    Whoever claims a shard scans it, so every shard is scanned exactly once;
    a helper that arrives after the last claim finds nothing to do.
    """

    def __init__(
        self, shards: Sequence[EntityShard], sizes: Sequence[int],
        queries: np.ndarray, k: int,
    ) -> None:
        self._shards = shards
        self._queries = queries
        self._k = k
        # deque.popleft is atomic: two threads never claim one shard.
        self._unclaimed = deque(sorted(range(len(shards)), key=lambda i: -sizes[i]))
        self._blocks: List[Union[Block, BaseException, None]] = [None] * len(shards)
        self._scanned = [threading.Event() for _ in shards]

    def scan(self) -> None:
        """Claim and scan shards until none is left unclaimed."""
        while True:
            try:
                position = self._unclaimed.popleft()
            except IndexError:
                return
            try:
                self._blocks[position] = self._shards[position].search_arrays(
                    self._queries, self._k
                )
            except BaseException as error:  # re-raised by the caller, in blocks()
                self._blocks[position] = error
            self._scanned[position].set()

    def blocks(self) -> List[Block]:
        """The caller's part: scan what is unclaimed, then wait for the shards
        helpers claimed (each already running) and return every block in
        shard order.  The first shard in that order that raised re-raises."""
        self.scan()
        for scanned in self._scanned:
            scanned.wait()
        for block in self._blocks:
            if isinstance(block, BaseException):
                raise block
        return self._blocks  # type: ignore[return-value]


class ShardedEntityIndex:
    """Per-world sharded MIPS index with lazy shard builds.

    Each world (domain) owns one shard.  Shard vectors are either supplied
    up-front or embedded lazily via ``embed_fn`` the first time the shard is
    searched — building a 16-world index therefore costs nothing until traffic
    actually hits a world.  Empty shards are legal and simply contribute no
    candidates.  ``backend`` picks the coarse stage of every shard built here:
    ``None`` scans exhaustively, an :class:`~repro.index.IVFBackend` probes
    k-means cells.

    Example::

        index = ShardedEntityIndex.from_entities(entities, embed_fn=model.embed_entities)
        index.search(queries, k=64)                      # fan out + merge
        index.search(queries, k=64, worlds=["lego"])     # routed to one world
        index.vector("lego:7")                           # one entity's embedding
    """

    def __init__(
        self,
        embed_fn: Optional[EmbedFn] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        backend: Optional[IVFBackend] = None,
    ) -> None:
        self._embed_fn = embed_fn
        self._block_size = block_size
        self._backend = backend
        self._shards: "OrderedDict[str, Union[EntityShard, ColdShard]]" = OrderedDict()
        self._entity_world: Dict[str, str] = {}
        # Guards every write to _shards: a cold world is built once.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_entities(
        cls,
        entities: Iterable[Entity],
        embed_fn: Optional[EmbedFn] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        backend: Optional[IVFBackend] = None,
    ) -> "ShardedEntityIndex":
        """Group ``entities`` by their ``domain`` attribute, one shard each."""
        index = cls(embed_fn=embed_fn, block_size=block_size, backend=backend)
        grouped: "OrderedDict[str, List[Entity]]" = OrderedDict()
        for entity in entities:
            grouped.setdefault(entity.domain, []).append(entity)
        for world, members in grouped.items():
            index.add_shard(world, members)
        return index

    def add_shard(
        self,
        world: str,
        entities: Sequence[Entity],
        vectors: Optional[np.ndarray] = None,
    ) -> None:
        """Register a shard; ``vectors=None`` defers embedding to first use.

        ``vectors`` is a float64 matrix, possibly memory-mapped — it reaches
        the shard as-is, so its pages stay lazy.  The shard itself is built
        on first use.  An entity id named twice, or already indexed in
        another world, is an error.
        """
        if vectors is not None and len(vectors) != len(entities):
            raise ValueError("entities and vectors must align")
        members = list(entities)
        self._register(world, (members, vectors), [entity.entity_id for entity in members])

    def _register(
        self, world: str, record: Union[EntityShard, ColdShard], ids: List[str]
    ) -> None:
        """Add a new world's shard record; nothing is registered if any id is
        repeated or already indexed."""
        reject_repeated_ids(ids)
        with self._lock:
            if world in self._shards:
                raise ValueError(f"shard {world!r} already exists")
            indexed = [i for i in ids if i in self._entity_world]
            if indexed:
                raise ValueError(f"entities already indexed in another world: {indexed}")
            self._shards[world] = record
        for entity_id in ids:
            self._entity_world[entity_id] = world

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(
            len(record) if isinstance(record, EntityShard) else len(record[0])
            for record in self._shards.values()
        )

    def worlds(self) -> List[str]:
        """Shard names in insertion order."""
        return list(self._shards)

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def is_materialized(self, world: str) -> bool:
        """Whether a shard's vectors have been built (lazy shards start cold)."""
        record = self._shards.get(world)
        return isinstance(record, EntityShard) or (
            record is not None and record[1] is not None
        )

    def shard(self, world: str) -> Optional[EntityShard]:
        """The shard of one world, built on first use; None if it has no entities.

        A cold world is built under the index lock, so threads that reach it
        together embed it once and all get the one shard (a write landing on
        it is never lost to a second build); a built shard is returned
        without locking.
        """
        if world not in self._shards:
            raise KeyError(f"unknown world {world!r}")
        record = self._shards[world]
        if isinstance(record, EntityShard):
            return record
        with self._lock:
            record = self._shards[world]
            if isinstance(record, EntityShard):
                return record
            members, vectors = record
            if not members:
                return None
            if vectors is None:
                if self._embed_fn is None:
                    raise ValueError(
                        f"shard {world!r} has no vectors and the index has no embed_fn"
                    )
                vectors = np.asarray(self._embed_fn(members), dtype=np.float64)
                if len(vectors) != len(members):
                    raise ValueError("embed_fn returned a misaligned vector matrix")
            shard = EntityShard(
                members, vectors, block_size=self._block_size, cells=self._backend
            )
            self._shards[world] = shard
        return shard

    # ------------------------------------------------------------------
    # Entity / vector lookup
    # ------------------------------------------------------------------
    def entity(self, entity_id: str) -> Entity:
        world = self._entity_world[entity_id]
        shard = self.shard(world)
        assert shard is not None  # entity_id implies a non-empty shard
        return shard.entity(entity_id)

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._entity_world

    def vector(self, entity_id: str) -> np.ndarray:
        """Embedding of one entity."""
        shard = self.shard(self._entity_world[entity_id])
        assert shard is not None  # entity_id implies a non-empty shard
        return shard.vector(entity_id)

    # ------------------------------------------------------------------
    # Online mutation
    # ------------------------------------------------------------------
    def _resolve_vectors(
        self, entities: List[Entity], vectors: Optional[np.ndarray]
    ) -> np.ndarray:
        if vectors is None:
            if self._embed_fn is None:
                raise ValueError("no vectors given and the index has no embed_fn")
            vectors = self._embed_fn(entities)
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if len(vectors) != len(entities):
            raise ValueError("entities and vectors must align")
        return vectors

    def add_entities(
        self,
        entities: Sequence[Entity],
        vectors: Optional[np.ndarray] = None,
    ) -> None:
        """Add entities online; they are searchable as soon as this returns.

        Entities route to their ``domain`` shard; unknown domains create a
        new shard.  ``vectors=None`` embeds through the index's ``embed_fn``.
        The rows land in the shard's exact pending tail (linkable
        immediately, folded into main storage by :meth:`compact`).  An id
        already indexed, or named twice, is an error.
        """
        entities = list(entities)
        if not entities:
            return
        reject_repeated_ids([entity.entity_id for entity in entities])
        duplicates = [e.entity_id for e in entities if e.entity_id in self._entity_world]
        if duplicates:
            raise ValueError(
                f"entities already indexed (use update_entities): {duplicates}"
            )
        vectors = self._resolve_vectors(entities, vectors)
        grouped: "OrderedDict[str, List[int]]" = OrderedDict()
        for position, entity in enumerate(entities):
            grouped.setdefault(entity.domain, []).append(position)
        for world, rows in grouped.items():
            members = [entities[i] for i in rows]
            shard = self.shard(world) if world in self._shards else None
            if shard is None:
                # New world, or one registered without entities: (re)register.
                with self._lock:
                    self._shards[world] = (members, vectors[rows])
            else:
                shard.add(members, vectors[rows])
            for entity in members:
                self._entity_world[entity.entity_id] = world

    def remove_entities(self, entity_ids: Sequence[str]) -> None:
        """Remove entities online (tombstoned until the next :meth:`compact`)."""
        ids = list(entity_ids)
        reject_repeated_ids(ids)
        unknown = [i for i in ids if i not in self._entity_world]
        if unknown:
            raise KeyError(f"unknown entities: {sorted(unknown)}")
        grouped: "OrderedDict[str, List[str]]" = OrderedDict()
        for entity_id in ids:
            grouped.setdefault(self._entity_world[entity_id], []).append(entity_id)
        for world, members in grouped.items():
            shard = self.shard(world)
            assert shard is not None  # ids imply non-empty shards
            shard.remove(members)
        for entity_id in ids:
            del self._entity_world[entity_id]

    def update_entities(
        self,
        entities: Sequence[Entity],
        vectors: Optional[np.ndarray] = None,
    ) -> None:
        """Refresh metadata/embeddings of already-indexed entities online.

        An id named twice is an error, and so is an entity whose ``domain``
        is not the world it is indexed in: an update does not move it
        (remove it and add it instead).
        """
        entities = list(entities)
        if not entities:
            return
        reject_repeated_ids([entity.entity_id for entity in entities])
        missing = [e.entity_id for e in entities if e.entity_id not in self._entity_world]
        if missing:
            raise KeyError(f"unknown entities: {missing}")
        moved = [e.entity_id for e in entities if e.domain != self._entity_world[e.entity_id]]
        if moved:
            raise ValueError(f"an update cannot move entities to another world: {moved}")
        vectors = self._resolve_vectors(entities, vectors)
        grouped: "OrderedDict[str, List[int]]" = OrderedDict()
        for position, entity in enumerate(entities):
            grouped.setdefault(self._entity_world[entity.entity_id], []).append(position)
        for world, rows in grouped.items():
            shard = self.shard(world)
            assert shard is not None
            shard.update([entities[i] for i in rows], vectors[rows])

    def compact(self) -> Dict[str, int]:
        """Compact every built shard: fold pending tails and tombstones into
        fresh generations.  Returns ``{world: generation}`` for those shards.
        """
        return {
            world: record.compact()
            for world, record in self._shards.items()
            if isinstance(record, EntityShard)
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Snapshot the index to a directory; returns the directory path.

        One manifest entry per world, in shard order (layout and crash
        safety: :mod:`repro.index.snapshot`).  Saving never embeds or
        clusters anything: worlds without vectors are recorded cold and
        stay cold after :meth:`load`.  The full live state (pending tail,
        tombstones, cells) is saved as it is and round-trips bit-identically.
        """
        records = []
        for world, record in self._shards.items():
            shard: Optional[EntityShard] = None
            if isinstance(record, EntityShard):
                shard = record
            elif record[0] and record[1] is not None:
                # Registered with vectors, never searched: saved as it would
                # scan, without building the backend's cells.
                shard = EntityShard(record[0], record[1], block_size=self._block_size)
            if shard is not None:
                entry, arrays = shard.export()
            else:
                arrays = {}
                entry = {
                    "backend": "exact",
                    "codec": "float64",
                    "entities": [entity.to_dict() for entity in record[0]],
                }
            entry.update(world=world, materialized=shard is not None)
            records.append((entry, arrays))
        return write_snapshot(path, {"block_size": self._block_size}, records)

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        embed_fn: Optional[EmbedFn] = None,
        block_size: Optional[int] = None,
        mmap: bool = False,
        backend: Optional[IVFBackend] = None,
    ) -> "ShardedEntityIndex":
        """Restore an index saved with :meth:`save`.

        Shard insertion order, live shard state and cold-shard status all
        round-trip exactly, so ``load(path).search(q, k)`` ranks identically
        to the pre-save index.  ``embed_fn`` re-attaches the embedding
        function (snapshots cannot serialise callables); it is only required
        once a still-cold shard is first searched.  ``block_size`` overrides
        the persisted value when given.

        ``mmap=True`` opens every array with ``mmap_mode="r"`` — embedding
        pages load on first touch, and the scan reads them block by block,
        never whole.
        ``backend`` clusters *exhaustive-saved* shards into cells at load
        and builds cold ones with it later; shards saved with cells restore
        them regardless.

        If ``path`` is a generation store (contains a ``CURRENT`` marker,
        see :mod:`repro.index.snapshot`), the current generation is loaded.
        """
        manifest, records = read_snapshot(path, mmap=mmap)
        index = cls(
            embed_fn=embed_fn,
            block_size=manifest["block_size"] if block_size is None else block_size,
            backend=backend,
        )
        for entry, arrays in records:
            if not entry["materialized"]:
                index.add_shard(
                    entry["world"], [Entity.from_dict(p) for p in entry["entities"]]
                )
                continue
            shard = EntityShard.restore(entry, arrays, index._block_size, cells=backend)
            index._register(entry["world"], shard, [e.entity_id for e in shard.entities()])
        return index

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(
        self,
        query_vectors: np.ndarray,
        k: int,
        worlds: Optional[Sequence[str]] = None,
    ) -> List[RetrievalResult]:
        """Top-k search, fanned out over ``worlds`` (default: all shards).

        Per-shard rankings are merged by decreasing score; ties are broken by
        shard insertion order, then entity position, so merged rankings are
        deterministic.  Empty shards contribute nothing; if every selected
        shard is empty the results are empty (never an error).  A world
        named twice is an error.  Each shard resolves its candidates inside
        its own search, against the state that scored them, so a mutation or
        ``compact()`` racing this call cannot detach a candidate from its
        score.

        When at least two selected shards each span more than one scan block
        and the process has a spare CPU, the shard scans run help-first in
        parallel: this thread and the helper threads claim shards from one
        list, largest first, and this thread scans every shard no helper has
        started, so it only ever waits on a scan already running.  The merge
        is the same either way, so the results are too.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        query_vectors = np.atleast_2d(np.asarray(query_vectors, dtype=np.float64))
        shards = [
            shard for shard in map(self.shard, self._select_worlds(worlds))
            if shard is not None
        ]
        blocks = self._search_shards(shards, query_vectors, k)
        if not blocks:
            return [RetrievalResult([], []) for _ in range(len(query_vectors))]
        if len(blocks) == 1:
            scores, _, entities = blocks[0]
            return build_results(scores, entities)

        # Fan-out: one vectorized merge.  Blocks are concatenated in shard
        # insertion order and each is already ordered (score desc, position
        # asc), so the tie-break (shard order, entity position) is the
        # concatenated column index; padding slots sort last and are dropped
        # by build_results.
        scores = np.concatenate([block[0] for block in blocks], axis=1)
        entities = np.concatenate([block[2] for block in blocks], axis=1)
        columns = np.broadcast_to(np.arange(scores.shape[1]), scores.shape)
        scores, columns = _sorted_topk(scores, columns, k)
        return build_results(scores, np.take_along_axis(entities, columns, axis=1))

    def _search_shards(
        self, shards: List[EntityShard], queries: np.ndarray, k: int
    ) -> List[Block]:
        """Every shard's ``search_arrays``, in shard order."""
        helpers = _HELPERS
        sizes = [len(shard) for shard in shards]
        large = sum(size > self._block_size for size in sizes)
        if large < 2 or helpers.size == 0:
            return [shard.search_arrays(queries, k) for shard in shards]
        fan_out = _FanOut(shards, sizes, queries, k)
        helpers.lend(fan_out.scan, min(helpers.size, len(shards) - 1))
        return fan_out.blocks()

    def search_routed(
        self,
        query_vectors: np.ndarray,
        k: int,
        routes: Sequence[Optional[str]],
    ) -> List[RetrievalResult]:
        """Per-query world routing: query ``i`` searches shard ``routes[i]``.

        A route of ``None`` — or naming a world this index does not hold —
        falls back to a fan-out search over all shards.  Queries sharing a
        route are batched into one shard search, so the common serving case
        (a batch of mentions from one world) stays a single blocked matmul.
        """
        query_vectors = np.atleast_2d(np.asarray(query_vectors, dtype=np.float64))
        if len(routes) != len(query_vectors):
            raise ValueError("routes and query vectors must align")

        grouped: "OrderedDict[Optional[str], List[int]]" = OrderedDict()
        for index, route in enumerate(routes):
            key = route if route in self._shards else None
            grouped.setdefault(key, []).append(index)

        # One placeholder instance per query — a single shared RetrievalResult
        # replicated n times would alias every unfilled slot to one object.
        results: List[RetrievalResult] = [
            RetrievalResult([], []) for _ in range(len(query_vectors))
        ]
        for route, indices in grouped.items():
            worlds = None if route is None else [route]
            group_results = self.search(query_vectors[indices], k, worlds=worlds)
            for index, result in zip(indices, group_results):
                results[index] = result
        return results

    def _select_worlds(self, worlds: Optional[Sequence[str]]) -> List[str]:
        if worlds is None:
            return self.worlds()
        worlds = list(worlds)
        unknown = [world for world in worlds if world not in self._shards]
        if unknown:
            raise KeyError(f"unknown worlds: {unknown}")
        if len(set(worlds)) != len(worlds):
            repeated = sorted({world for world in worlds if worlds.count(world) > 1})
            raise ValueError(f"worlds named more than once: {repeated}")
        return worlds

