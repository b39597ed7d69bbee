"""The index shard: one immutable pinned state, two coarse stages.

The bi-encoder embeds every entity of a world once; mentions are linked by
maximum inner product against those embeddings (the paper's candidate
generation stage, evaluated with Recall@64).  :class:`EntityShard` is the one
implementation of that search, for a flat index and for every shard of a
:class:`~repro.linking.candidates.ShardedEntityIndex` alike.

**State.**  Everything a search reads lives in one frozen
:class:`ShardState`: the main float64 embedding matrix (possibly
memory-mapped) with its entities and id → position map, a *pending tail* of
rows added since the last compaction with its entities, an alive mask
(``False`` = tombstone), the ids moved since the last compaction and, for a
celled shard, the coarse cells.  A search pins the state once and takes
scores, positions *and entities* from it; mutations build a new state under
the shard lock and publish it with one reference assignment, so a search
never sees half a mutation and never resolves a position against a
different generation.  A mutation copies only what writes grow — the tail,
the alive mask and the small map of moved ids — and shares the main matrix,
entities and id map with every other state of its generation.

**Coarse stage**, fixed at build time by the ``cells`` argument:

* no cells (the default) — *exhaustive*: every live main row is scored block
  by block through :func:`blocked_topk` (a memory-mapped matrix is paged in
  one block at a time);
* :class:`IVFBackend` cells — *celled*: rows are clustered into seeded
  k-means cells, a query probes its ``nprobe`` best cells and re-scores their
  members with exact inner products.  ``nprobe >= num_cells`` *is* the
  exhaustive stage: such a search runs the scan, so its results equal the
  exhaustive shard's bit for bit.

Both stages score the pending tail exactly, once per batch, so added
entities are linkable as soon as :meth:`EntityShard.add` returns.

**Lifecycle.**  :meth:`~EntityShard.add` appends to the tail,
:meth:`~EntityShard.remove` tombstones, :meth:`~EntityShard.update` does both
in one publication (the row moves to the tail), and
:meth:`~EntityShard.compact` folds tail and tombstones into a fresh
generation (re-clustered when celled).  Positions are stable within a
generation; rankings are ordered (score desc, position asc), so repeated
searches of an unchanged shard are identical.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..kb.entity import Entity

#: Entities are scored ``block_size`` at a time, each block's product written
#: into the scan's bounded window (see :func:`blocked_topk`), so a
#: memory-mapped matrix is read one block at a time.
DEFAULT_BLOCK_SIZE = 2048

#: Default number of probed cells per query.
DEFAULT_NPROBE = 8

#: Default Lloyd iterations for the coarse clustering.
DEFAULT_KMEANS_ITERS = 8


@dataclass
class RetrievalResult:
    """Top-k candidates for one mention, ranked by decreasing score.

    ``entities`` holds the candidates as resolved by the search itself, from
    the same pinned state that scored them (empty on a hand-built result).
    ``contains`` and ``rank_of`` are O(1) after the first call, which builds
    a rank dictionary (first occurrence wins); a result that is only read
    for its lists never builds one.  Treat ``entity_ids`` as immutable — the
    rank map is not rebuilt on mutation.
    """

    entity_ids: List[str]
    scores: List[float]
    entities: List[Entity] = field(default_factory=list, repr=False, compare=False)

    @cached_property
    def _rank_by_id(self) -> Dict[str, int]:
        ranks: Dict[str, int] = {}
        for rank, entity_id in enumerate(self.entity_ids):
            ranks.setdefault(entity_id, rank)
        return ranks

    def __len__(self) -> int:
        return len(self.entity_ids)

    def contains(self, entity_id: str) -> bool:
        """O(1) membership test among the retrieved candidates."""
        return entity_id in self._rank_by_id

    def rank_of(self, entity_id: str) -> Optional[int]:
        """0-based rank of ``entity_id`` among the candidates, or None."""
        return self._rank_by_id.get(entity_id)

    @property
    def top_id(self) -> Optional[str]:
        """Best-scoring candidate id (None for an empty result)."""
        return self.entity_ids[0] if self.entity_ids else None


def build_results(scores: np.ndarray, entities: np.ndarray) -> List[RetrievalResult]:
    """One :class:`RetrievalResult` per row of a search's ``(scores, entities)``.

    Padding slots (score ``-inf``, emitted when a celled probe or a nearly
    empty shard yields fewer than ``k`` candidates) are dropped.
    """
    results: List[RetrievalResult] = []
    for row_scores, row_entities, real in zip(scores, entities, scores > -np.inf):
        members = row_entities[real].tolist()
        results.append(
            RetrievalResult(
                entity_ids=[entity.entity_id for entity in members],
                scores=row_scores[real].tolist(),
                entities=members,
            )
        )
    return results


#: :func:`_sorted_topk` sorts inputs of at most this many scores directly: the
#: selection pass costs a fixed ~25 us of array bookkeeping, which a sort of a
#: serving-size input (8 queries x 64 entities) undercuts.
_DIRECT_SORT_SIZE = 1024


def _sorted_topk(
    scores: np.ndarray, positions: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Keep the best ``k`` columns per row under (score desc, position asc).

    Select, then sort: each row's k-th largest score is found with
    ``np.partition``, the columns at or above it survive, and only the
    ``k`` survivors per row are sorted.  A row whose ties straddle the cut
    has more than ``k`` columns at or above it; that row alone is resolved
    under the total order.  Small inputs are sorted directly.
    """
    num_rows, width = scores.shape
    if k < width and scores.size > _DIRECT_SORT_SIZE:
        kth = np.partition(scores, width - k, axis=1)[:, width - k, None]
        keep = scores >= kth
        if np.count_nonzero(keep) != num_rows * k:
            for row in np.flatnonzero(np.count_nonzero(keep, axis=1) != k):
                keep[row] = False
                keep[row, np.lexsort((positions[row], -scores[row]))[:k]] = True
        scores = scores[keep].reshape(num_rows, k)
        positions = positions[keep].reshape(num_rows, k)
    order = np.lexsort((positions, -scores), axis=1)[:, :k]
    return (
        np.take_along_axis(scores, order, axis=1),
        np.take_along_axis(positions, order, axis=1),
    )


#: The scan selects once per *window* of whole blocks holding at most this
#: many scores (one block where a block alone holds more), so its buffer is
#: O(num_queries x window) whatever the number of rows.
_WINDOW_SCORES = 1 << 19

#: Columns per group of a window's grouped cut.
_GROUP_SIZE = 16

#: Windows of at most this many scores skip the grouped cut: one
#: :func:`_sorted_topk` over the whole window costs less than its passes.
_GROUPED_MIN_SIZE = _GROUP_SIZE * _DIRECT_SORT_SIZE


def _scan_topk(
    query_vectors: np.ndarray,
    entity_vectors: np.ndarray,
    k: int,
    block_size: int,
    alive: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`blocked_topk` over the rows ``alive`` marks (all when ``None``).

    Dead rows are scored with their block (the product is the same one an
    unmasked scan computes) and read ``-inf`` in the window, so they are
    never selected while ``k`` live rows remain.
    """
    num_queries, num_entities = len(query_vectors), len(entity_vectors)
    k = min(k, num_entities if alive is None else int(np.count_nonzero(alive)))
    if k <= 0:
        empty = np.zeros((num_queries, 0))
        return empty, empty.astype(np.int64)

    span = min(
        num_entities,
        block_size * max(1, _WINDOW_SCORES // (max(1, num_queries) * block_size)),
    )
    buffer = np.empty(num_queries * -(-span // _GROUP_SIZE) * _GROUP_SIZE)
    best: Optional[Tuple[np.ndarray, np.ndarray]] = None
    for start in range(0, num_entities, span):
        width = min(span, num_entities - start)
        padded = -(-width // _GROUP_SIZE) * _GROUP_SIZE
        window = buffer[:num_queries * padded].reshape(num_queries, padded)
        for offset in range(0, width, block_size):
            block = entity_vectors[start + offset:start + min(offset + block_size, width)]
            np.matmul(query_vectors, block.T, out=window[:, offset:offset + len(block)])
        if alive is not None:
            window[:, np.flatnonzero(~alive[start:start + width])] = -np.inf
        best = _merge_window(best, window, width, start, k)
    return best


def _merge_window(
    best: Optional[Tuple[np.ndarray, np.ndarray]],
    window: np.ndarray,
    width: int,
    start: int,
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The running top-k ``best`` updated with one window's scores.

    ``window`` is C-contiguous, a whole number of groups wide, and holds
    the scores of positions ``start .. start + width`` in its first
    ``width`` columns.
    """
    num_rows, padded = window.shape
    groups = padded // _GROUP_SIZE
    # k columns at earlier positions already reach each row's k-th score,
    # so a column of this window matters only where it beats that cut
    # strictly: an equal score loses the tie-break.
    cut = best[0][:, -1:] if best is not None and best[0].shape[1] == k else None
    straddling: Sequence[int] = ()
    if groups <= k or window.size <= _GROUPED_MIN_SIZE:
        scores = window[:, :width]
        positions = np.broadcast_to(np.arange(start, start + width), scores.shape)
    else:
        window[:, width:] = -np.inf
        # Group j holds columns j, j + groups, j + 2 * groups, ...
        maxima = window.reshape(num_rows, _GROUP_SIZE, groups).max(axis=1)
        top, straddling = _top_groups(maxima, cut, k)
        if top is None:
            return best
        offsets = padded * np.arange(num_rows)[:, None, None]
        flat = offsets + top[:, None, :] + groups * np.arange(_GROUP_SIZE)[:, None]
        scores = np.take(window, flat).reshape(num_rows, -1)
        positions = (flat - (offsets - start)).reshape(num_rows, -1)
    if best is not None:
        scores = np.concatenate([best[0], scores], axis=1)
        positions = np.concatenate([best[1], positions], axis=1)
    merged = _sorted_topk(scores, positions, k)
    for row in straddling:
        row_scores, row_positions = window[row, :width], np.arange(start, start + width)
        if best is not None:
            row_scores = np.concatenate([best[0][row], row_scores])
            row_positions = np.concatenate([best[1][row], row_positions])
        exact = _sorted_topk(row_scores[None], row_positions[None], k)
        merged[0][row], merged[1][row] = exact[0][0], exact[1][0]
    return merged


def _top_groups(
    maxima: np.ndarray, cut: Optional[np.ndarray], k: int
) -> Tuple[Optional[np.ndarray], Sequence[int]]:
    """Per row, the groups that can hold a column of the running top-k.

    Returns ``(top, straddling)``.  ``top`` holds the same number of group
    indices per row (``None`` when no group beats any row's ``cut``);
    ``straddling`` names the rows whose ties at the cut spill past ``top``.
    """
    num_rows, groups = maxima.shape
    wanted, floor = k, -np.inf
    if cut is not None:
        # The top ``wanted`` maxima of a row include every one beating its
        # cut, so fewer than k beating it anywhere narrows every row.
        wanted = min(k, int(np.count_nonzero(maxima > cut, axis=1).max()))
        if wanted == 0:
            return None, ()
        floor = cut
    bound = np.partition(maxima, groups - wanted, axis=1)[:, groups - wanted, None]
    above = maxima >= bound
    hits = np.flatnonzero(above)
    if hits.size == num_rows * wanted:
        return (hits % groups).reshape(num_rows, wanted), ()
    straddling = np.flatnonzero(
        (np.count_nonzero(above, axis=1) > wanted) & (bound > floor)[:, 0]
    )
    return np.argpartition(maxima, groups - wanted, axis=1)[:, groups - wanted:], straddling


def blocked_topk(
    query_vectors: np.ndarray,
    entity_vectors: np.ndarray,
    k: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Tuple[np.ndarray, np.ndarray]:
    """Blocked maximum-inner-product top-k over ``entity_vectors``.

    Scores are computed ``block_size`` entities at a time into a *window*
    of whole blocks holding at most ``_WINDOW_SCORES`` scores (one block
    where a block alone holds more), and each window is cut to k once:

    * its columns are split into strided groups of ``_GROUP_SIZE`` and
      each group's maximum taken; a row's k-th largest group maximum is at
      most its k-th largest score, so every top-k column lies in one of the
      row's top-k groups, and only those groups' columns are selected from
      (a row whose group maxima tie at that cut is resolved against its
      whole window row);
    * from the second window on, each row's k-th score so far is a strict
      cut: only groups whose maximum beats it are gathered, and a window
      where none does is skipped after its products.

    A small window is selected from directly.  Peak memory is
    ``O(num_queries * window)``, whatever the number of entities.  Every
    step is exact, so the result equals the top-k of the full score matrix.

    Returns ``(scores, positions)`` arrays of shape ``(num_queries, k)`` with
    each row sorted by decreasing score; ties are broken by ascending entity
    position, deterministically.
    """
    return _scan_topk(query_vectors, entity_vectors, k, block_size, None)


def default_num_cells(num_entities: int) -> int:
    """The usual IVF heuristic: ~sqrt(N) cells, at least 1, at most N."""
    if num_entities <= 0:
        return 1
    return max(1, min(num_entities, int(round(float(np.sqrt(num_entities))))))


def kmeans(
    vectors: np.ndarray,
    num_cells: int,
    seed: int = 0,
    iters: int = DEFAULT_KMEANS_ITERS,
) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded deterministic Lloyd k-means.

    Returns ``(centroids, assignments)``.  Initialisation draws ``num_cells``
    distinct rows with a seeded generator; empty cells are re-seeded each
    iteration to the points currently worst-served by their centroid, so no
    cell stays empty while there are enough points — both choices are
    deterministic functions of ``(vectors, num_cells, seed)``.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    n = len(vectors)
    if n == 0:
        raise ValueError("cannot cluster zero vectors")
    k = max(1, min(num_cells, n))
    rng = np.random.default_rng(seed)
    centroids = vectors[np.sort(rng.choice(n, size=k, replace=False))].copy()

    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(max(1, iters)):
        # Nearest centroid under L2: argmin |c|^2 - 2 v.c (|v|^2 constant).
        scores = vectors @ centroids.T
        norms = np.einsum("cd,cd->c", centroids, centroids)
        assignments = np.argmin(norms[None, :] - 2.0 * scores, axis=1)
        counts = np.bincount(assignments, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignments, vectors)
        filled = counts > 0
        centroids[filled] = sums[filled] / counts[filled, None]
        empty = np.flatnonzero(~filled)
        if empty.size:
            # Re-seed each empty cell with the point farthest from its
            # current centroid (deterministic: distances then position).
            own = np.take_along_axis(
                norms[None, :] - 2.0 * scores, assignments[:, None], axis=1
            ).ravel()
            worst = np.argsort(-own, kind="stable")[: empty.size]
            centroids[empty] = vectors[worst]
    # One final assignment pass against the returned centroids: the loop
    # moves centroids (means + empty-cell re-seeds) *after* assigning, so
    # without this a re-seeded cell would sit directly on a real point
    # while its inverted list is empty — a deterministic recall hole for
    # queries matching exactly that point.
    scores = vectors @ centroids.T
    norms = np.einsum("cd,cd->c", centroids, centroids)
    assignments = np.argmin(norms[None, :] - 2.0 * scores, axis=1)
    return centroids, assignments


def _invert_assignments(
    assignments: np.ndarray, num_cells: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Build concatenated inverted lists: (members, offsets).

    ``members[offsets[c]:offsets[c+1]]`` holds the positions of cell ``c``
    in ascending position order (stable sort), so list layout is
    deterministic.
    """
    members = np.argsort(assignments, kind="stable").astype(np.int64)
    counts = np.bincount(assignments, minlength=num_cells)
    offsets = np.zeros(num_cells + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return members, offsets


@dataclass(frozen=True)
class IVFBackend:
    """The celled coarse stage: k-means cells probed per query, exact re-score.

    Hand one to :class:`~repro.linking.candidates.ShardedEntityIndex` (or
    ``EntityShard(cells=...)``) to build celled shards; without one shards
    are exhaustive.

    ``num_cells=None`` picks ``~sqrt(shard_size)`` per shard (re-applied at
    every compaction), so one instance serves shards of very different sizes.
    ``nprobe`` is clamped to the cell count.  ``seed`` and ``kmeans_iters``
    make the clustering deterministic.
    """

    num_cells: Optional[int] = None
    nprobe: int = DEFAULT_NPROBE
    seed: int = 0
    kmeans_iters: int = DEFAULT_KMEANS_ITERS
    name: str = "ivf"


#: ``ShardState.moved``'s value for an id removed since the generation began.
_REMOVED = -1


@dataclass(frozen=True)
class ShardState:
    """One immutable publication of a shard; a search reads exactly one.

    Position ``p < len(storage)`` is main row ``p``; position
    ``len(storage) + j`` is pending row ``j``.  Positions are stable for the
    lifetime of a generation: removals only clear ``alive``, additions only
    append.  :meth:`EntityShard.compact` starts a new generation with fresh
    positions.

    A generation fixes ``storage``, ``entities``, ``id_to_position`` (the id
    of every main row → its row) and the cells; every state of that
    generation shares these objects and none of them is ever mutated.
    Writes grow the rest: the pending tail (``pending_vectors`` and
    ``pending_entities``), the alive mask, and ``moved``, the ids whose
    position changed since the generation began (their new position, or
    ``_REMOVED``).  A write copies only those, so it costs O(tail + moved
    ids), not O(shard).  :meth:`position_of` is the one
    id lookup: ``moved`` first, then ``id_to_position``.
    """

    storage: np.ndarray             # (num_main, dim) float64, possibly np.memmap
    entities: np.ndarray            # (num_main,) object: Entity
    id_to_position: Dict[str, int]  # main rows' ids -> row
    pending_vectors: np.ndarray     # (num_pending, dim) float64
    pending_entities: np.ndarray    # (num_pending,) object: Entity
    alive: np.ndarray               # (num_main + num_pending,) bool
    moved: Dict[str, int]           # id -> position, or _REMOVED, since the generation
    generation: int = 0
    centroids: Optional[np.ndarray] = None   # (num_cells, dim); None = exhaustive
    members: Optional[np.ndarray] = None     # (num_main,) concatenated cell lists
    offsets: Optional[np.ndarray] = None     # (num_cells + 1,)

    @property
    def num_main(self) -> int:
        return len(self.storage)

    def position_of(self, entity_id: str) -> Optional[int]:
        """Position of a live entity in this state; None if it is not live."""
        position = self.moved.get(entity_id)
        if position is None:
            return self.id_to_position.get(entity_id)
        return None if position == _REMOVED else position

    def entity_at(self, position: int) -> Entity:
        if position < self.num_main:
            return self.entities[position]
        return self.pending_entities[position - self.num_main]

    def entities_at(self, positions: np.ndarray) -> np.ndarray:
        """Object array of the entities at ``positions``; ``None`` at ``-1``."""
        num_main = self.num_main
        entities = np.empty(positions.shape, dtype=object)
        main = (positions >= 0) & (positions < num_main)
        tail = positions >= num_main
        entities[main] = self.entities[positions[main]]
        entities[tail] = self.pending_entities[positions[tail] - num_main]
        return entities

    def vector_at(self, position: int) -> np.ndarray:
        if position < self.num_main:
            return np.array(self.storage[position])
        return self.pending_vectors[position - self.num_main]


def _entity_array(entities: Sequence[Entity]) -> np.ndarray:
    array = np.empty(len(entities), dtype=object)
    array[:] = entities
    return array


def _require_finite(vectors: np.ndarray, what: str) -> None:
    """Scores are compared under a total order, which NaN and inf break."""
    if not np.isfinite(vectors).all():
        raise ValueError(f"{what} must be finite")


def _aligned_rows(entities: List[Entity], vectors: np.ndarray) -> np.ndarray:
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if len(entities) != len(vectors):
        raise ValueError("entities and vectors must align")
    _require_finite(vectors, "entity vectors")
    return vectors


def reject_repeated_ids(entity_ids: Sequence[str]) -> None:
    """Raise ``ValueError`` naming every id that occurs more than once."""
    if len(set(entity_ids)) == len(entity_ids):
        return
    repeated = sorted(i for i, count in Counter(entity_ids).items() if count > 1)
    if repeated:
        raise ValueError(f"entity ids named more than once: {repeated}")


def _with_tail(
    state: ShardState,
    entities: List[Entity],
    vectors: np.ndarray,
    alive: np.ndarray,
) -> ShardState:
    """``state`` with ``entities`` appended to the pending tail.

    ``alive`` replaces the state's mask: the caller's, already carrying any
    tombstones.
    """
    base = len(alive)
    moved = dict(state.moved)
    for offset, entity in enumerate(entities):
        moved[entity.entity_id] = base + offset
    return replace(
        state,
        pending_vectors=np.concatenate([state.pending_vectors, vectors], axis=0),
        pending_entities=np.concatenate(
            [state.pending_entities, _entity_array(entities)]
        ),
        alive=np.concatenate([alive, np.ones(len(entities), dtype=bool)]),
        moved=moved,
    )


class EntityShard:
    """Maximum-inner-product index over one entity collection.

    Parameters
    ----------
    entities, vectors:
        The shard content.  ``vectors`` is a finite float64 matrix,
        possibly memory-mapped.
    block_size:
        Rows scored per block by the exhaustive scan.
    cells:
        ``None`` (exhaustive scan, no clustering at build) or an
        :class:`IVFBackend` (celled probe).

    Example::

        shard = EntityShard(entities, model.embed_entities(entities))
        shard.search(query_vectors, k=64)[0].rank_of(gold_id)
    """

    def __init__(
        self,
        entities: Sequence[Entity],
        vectors: np.ndarray,
        block_size: int = DEFAULT_BLOCK_SIZE,
        cells: Optional[IVFBackend] = None,
    ) -> None:
        entities = list(entities)
        if len(entities) != len(vectors):
            raise ValueError("entities and vectors must align")
        if len(entities) == 0:
            raise ValueError("cannot build an index over zero entities")
        reject_repeated_ids([entity.entity_id for entity in entities])
        vectors = np.asarray(vectors, dtype=np.float64)
        _require_finite(vectors, "entity vectors")
        self._configure(block_size, cells)
        self._state = self._generation(_entity_array(entities), vectors, 0)

    def _configure(self, block_size: int, cells: Optional[IVFBackend]) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        if cells is not None and cells.nprobe <= 0:
            raise ValueError("nprobe must be positive")
        self._block_size = block_size
        self._cells = cells
        self._lock = threading.Lock()

    def _generation(
        self, entities: np.ndarray, storage: np.ndarray, generation: int
    ) -> ShardState:
        """A fresh generation: every row main and alive, cells (if any) built."""
        return ShardState(
            storage=storage,
            entities=entities,
            id_to_position={
                entity.entity_id: position for position, entity in enumerate(entities)
            },
            pending_vectors=np.zeros((0, storage.shape[1]), dtype=np.float64),
            pending_entities=_entity_array([]),
            alive=np.ones(len(entities), dtype=bool),
            moved={},
            generation=generation,
            **self._cluster(storage),
        )

    def _cluster(self, storage: np.ndarray) -> Dict[str, np.ndarray]:
        """The coarse cells over ``storage`` ({} for an exhaustive shard)."""
        cells = self._cells
        if cells is None:
            return {}
        if len(storage) == 0:
            assignments = np.zeros(0, dtype=np.int64)
            centroids = np.zeros((0, storage.shape[1]), dtype=np.float64)
        else:
            wanted = cells.num_cells
            if wanted is None:
                wanted = default_num_cells(len(storage))
            centroids, assignments = kmeans(
                storage,
                max(1, min(wanted, len(storage))),
                seed=cells.seed,
                iters=cells.kmeans_iters,
            )
        members, offsets = _invert_assignments(assignments, len(centroids))
        return {"centroids": centroids, "members": members, "offsets": offsets}

    # ------------------------------------------------------------------
    # Introspection (each reads one state)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._state.alive.sum())

    def __contains__(self, entity_id: str) -> bool:
        return self._state.position_of(entity_id) is not None

    @property
    def storage(self) -> np.ndarray:
        """The main embedding matrix of the current generation (do not mutate)."""
        return self._state.storage

    @property
    def generation(self) -> int:
        """Compaction generation (0 for a freshly built shard)."""
        return self._state.generation

    @property
    def num_pending(self) -> int:
        """Alive entities in the exact pending tail (0 after compact)."""
        state = self._state
        return int(state.alive[state.num_main:].sum())

    @property
    def num_tombstones(self) -> int:
        return int((~self._state.alive).sum())

    def entities(self) -> List[Entity]:
        """Alive entities in position order: main rows, then the pending tail."""
        state = self._state
        everything = np.concatenate([state.entities, state.pending_entities])
        return everything[state.alive].tolist()

    def entity(self, entity_id: str) -> Entity:
        state = self._state
        position = state.position_of(entity_id)
        if position is None:
            raise KeyError(entity_id)
        return state.entity_at(position)

    def vector(self, entity_id: str) -> np.ndarray:
        """Current embedding of one entity (from the main matrix or the tail)."""
        state = self._state
        position = state.position_of(entity_id)
        if position is None:
            raise KeyError(entity_id)
        return state.vector_at(position)

    def stats(self) -> Dict[str, object]:
        state = self._state
        stats: Dict[str, object] = {
            "backend": "exact" if self._cells is None else "ivf",
            "entities": int(state.alive.sum()),
            "pending": int(state.alive[state.num_main:].sum()),
            "tombstones": int((~state.alive).sum()),
            "generation": state.generation,
            "storage_bytes": state.storage.nbytes,
        }
        if self._cells is not None:
            stats["num_cells"] = len(state.centroids)
            stats["nprobe"] = min(self._cells.nprobe, len(state.centroids))
        return stats

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search_arrays(
        self, query_vectors: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Top-k ``(scores, positions, entities)`` per query, from one state.

        The state is pinned once, so a mutation or :meth:`compact` landing
        mid-call can never remap a position between scoring and resolution.
        Rows are sorted by (score desc, position asc) and are as wide as the
        longest one, at most ``k``; a celled probe that found fewer
        candidates for a query pads its row with score ``-inf``, position
        ``-1`` and entity ``None``.  ``entities`` is an object array shaped
        like ``positions``.  Positions are only meaningful within the
        generation that produced them — callers wanting candidates use the
        entities.  A non-finite query vector is a ``ValueError``.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        state = self._state
        queries = np.atleast_2d(np.asarray(query_vectors, dtype=np.float64))
        _require_finite(queries, "query vectors")
        scores, positions = self._topk(state, queries, k)
        return scores, positions, state.entities_at(positions)

    def search(self, query_vectors: np.ndarray, k: int) -> List[RetrievalResult]:
        """Top-k inner-product search, one :class:`RetrievalResult` per query.

        ``k`` is clamped to the number of candidates; results carry the
        candidate entities resolved from the state that scored them.
        """
        scores, _, entities = self.search_arrays(query_vectors, k)
        return build_results(scores, entities)

    def _topk(
        self, state: ShardState, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Search one pinned ``state``; every read below goes through it.

        A probe of every cell is the scan.
        """
        if state.centroids is None or self._cells.nprobe >= len(state.centroids):
            return self._scan(state, queries, k)
        return self._probe(state, queries, k)

    def _scan(
        self, state: ShardState, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exhaustive stage: blocked top-k over main storage, plus the tail.

        Tombstoned main rows are masked out of the scan's candidate buffer,
        so the kernel selects ``min(k, live main rows)`` whatever the number
        of tombstones.  An un-mutated shard returns the kernel's result
        untouched.
        """
        num_main = state.num_main
        main_alive = state.alive[:num_main]
        scores, positions = _scan_topk(
            queries,
            state.storage,
            k,
            self._block_size,
            None if main_alive.all() else main_alive,
        )
        tail = num_main + np.flatnonzero(state.alive[num_main:])
        if not tail.size:
            return scores, positions
        tail_scores = queries @ state.pending_vectors[tail - num_main].T
        return _sorted_topk(
            np.concatenate([scores, tail_scores], axis=1),
            np.concatenate([positions, np.broadcast_to(tail, tail_scores.shape)], axis=1),
            k,
        )

    def _probe(
        self, state: ShardState, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Celled stage: one top-k selection over a padded rectangle, one row
        per query.  The alive pending tail is scored once for the whole batch
        into the first columns; each query then scores the live members of
        its own probed cells in place after them.  Unfilled slots stay
        (-inf, -1), which sorts after every real candidate.

        Both products are einsums, so every (query, row) pair is summed in
        the same order wherever the row lives; column order does not matter
        to the (score desc, position asc) selection.
        """
        # einsum's summation order follows the operands' strides.
        queries = np.ascontiguousarray(queries)
        num_main = state.num_main
        tail = num_main + np.flatnonzero(state.alive[num_main:])
        positions, bounds = self._gather_candidates(state, queries)
        shape = (len(queries), tail.size + int(np.diff(bounds).max(initial=0)))
        scores = np.full(shape, -np.inf)
        padded = np.full(shape, -1, dtype=np.int64)
        scores[:, :tail.size] = np.einsum(
            "qd,td->qt", queries, state.pending_vectors[tail - num_main]
        )
        padded[:, :tail.size] = tail
        for row, query in enumerate(queries):
            mine = positions[bounds[row]:bounds[row + 1]]
            end = tail.size + mine.size
            np.einsum(
                "td,d->t",
                np.take(state.storage, mine, axis=0),
                query,
                out=scores[row, tail.size:end],
            )
            padded[row, tail.size:end] = mine
        return _sorted_topk(scores, padded, k)

    def _gather_candidates(
        self, state: ShardState, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The live main rows of each query's probed cells, grouped by query.

        Probes the top ``nprobe`` centroids per query (fewer than all: a
        full probe is the scan) and expands their inverted lists with one
        vectorized ragged gather; tombstones are filtered out.  Returns ``(positions, bounds)``: query ``i``'s
        candidates are ``positions[bounds[i]:bounds[i + 1]]``.  The pending
        tail is not here — :meth:`_probe` scores it once per batch.
        """
        nprobe = self._cells.nprobe
        cell_scores = queries @ state.centroids.T
        probe = np.argpartition(-cell_scores, nprobe - 1, axis=1)[:, :nprobe]

        # Ragged ranges members[starts[i] : starts[i]+lengths[i]] without a
        # Python loop.
        starts = state.offsets[probe]
        lengths = state.offsets[probe + 1] - starts
        query_ends = np.cumsum(lengths.sum(axis=1))
        starts, lengths = starts.ravel(), lengths.ravel()
        ends = np.cumsum(lengths)
        flat = np.arange(lengths.sum(), dtype=np.int64) + np.repeat(
            starts - (ends - lengths), lengths
        )
        positions = state.members[flat]
        alive = state.alive[positions]
        kept = np.zeros(len(alive) + 1, dtype=np.int64)
        np.cumsum(alive, out=kept[1:])
        return positions[alive], kept[np.concatenate([[0], query_ends])]

    # ------------------------------------------------------------------
    # Online mutation (pending tail + tombstones, one publication each)
    # ------------------------------------------------------------------
    def add(self, entities: Sequence[Entity], vectors: np.ndarray) -> None:
        """Append entities to the exact pending tail (searchable immediately).

        An id already indexed is an error (use :meth:`update`), and so are
        an id named twice and a non-finite vector.
        """
        entities = list(entities)
        vectors = _aligned_rows(entities, vectors)
        if not entities:
            return
        reject_repeated_ids([entity.entity_id for entity in entities])
        with self._lock:
            state = self._state
            for entity in entities:
                if state.position_of(entity.entity_id) is not None:
                    raise ValueError(
                        f"entity {entity.entity_id!r} already indexed; use update()"
                    )
            self._state = _with_tail(state, entities, vectors, state.alive)

    def remove(self, entity_ids: Sequence[str]) -> None:
        """Tombstone entities; their positions are never returned again.

        Removing every entity leaves a legal empty shard (searches return
        empty results).  An id named twice is an error.
        """
        ids = list(entity_ids)
        if not ids:
            return
        reject_repeated_ids(ids)
        with self._lock:
            state = self._state
            positions = [state.position_of(entity_id) for entity_id in ids]
            unknown = [i for i, position in zip(ids, positions) if position is None]
            if unknown:
                raise KeyError(f"unknown entities: {sorted(unknown)}")
            alive = state.alive.copy()
            alive[positions] = False
            moved = dict(state.moved)
            moved.update(dict.fromkeys(ids, _REMOVED))
            self._state = replace(state, alive=alive, moved=moved)

    def update(self, entities: Sequence[Entity], vectors: np.ndarray) -> None:
        """Replace entities (same id, new metadata/embedding).

        The old row is tombstoned and the fresh one appended to the exact
        pending tail in *one* state publication, so a concurrent search sees
        either the old row or the new one — never the entity transiently
        absent.  An id named twice, or a non-finite vector, is an error.
        """
        entities = list(entities)
        vectors = _aligned_rows(entities, vectors)
        if not entities:
            return
        reject_repeated_ids([entity.entity_id for entity in entities])
        with self._lock:
            state = self._state
            positions = [state.position_of(entity.entity_id) for entity in entities]
            missing = [
                e.entity_id for e, position in zip(entities, positions) if position is None
            ]
            if missing:
                raise KeyError(f"unknown entities: {missing}")
            alive = state.alive.copy()
            alive[positions] = False
            self._state = _with_tail(state, entities, vectors, alive)

    def compact(self) -> int:
        """Fold the pending tail + tombstones into a fresh generation.

        The new main matrix and, on a celled shard, the re-clustered cells
        are built off to the side and published in one reference assignment
        — concurrent searches see the old generation or the new one, never a
        mix.  A shard with nothing to fold is left alone (its matrix may be a
        shared memory map).
        Returns the generation now current.
        """
        with self._lock:
            state = self._state
            if state.alive.all() and not len(state.pending_vectors):
                return state.generation
            keep = np.flatnonzero(state.alive)
            from_main = keep < state.num_main
            main, tail = keep[from_main], keep[~from_main] - state.num_main
            dense = np.concatenate(
                [state.storage[main], state.pending_vectors[tail]], axis=0
            )
            entities = np.concatenate(
                [state.entities[main], state.pending_entities[tail]]
            )
            self._state = self._generation(entities, dense, state.generation + 1)
            return self._state.generation

    # ------------------------------------------------------------------
    # Snapshot entry — see repro.index.snapshot for the directory layout
    # ------------------------------------------------------------------
    def export(self) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        """Manifest entry + arrays persisting the exact live state.

        Pending tail and tombstones round-trip as-is (no silent compaction),
        so a restored shard ranks identically to the live one.
        """
        state = self._state
        num_main = state.num_main
        entry: Dict[str, object] = {
            "backend": "exact" if self._cells is None else "ivf",
            # Kept so the layout stays the one earlier builds wrote;
            # read_snapshot refuses any other value.
            "codec": "float64",
            "generation": state.generation,
            "entities": [e.to_dict() for e in state.entities],
            "pending_entities": [e.to_dict() for e in state.pending_entities],
        }
        arrays: Dict[str, np.ndarray] = {
            "main_alive": state.alive[:num_main],
            "pending_alive": state.alive[num_main:],
            "pending_vectors": state.pending_vectors,
            "storage": state.storage,
        }
        if self._cells is not None:
            entry.update(
                nprobe=self._cells.nprobe,
                num_cells=len(state.centroids),
                num_cells_config=self._cells.num_cells,
                seed=self._cells.seed,
                kmeans_iters=self._cells.kmeans_iters,
            )
            arrays.update(
                centroids=state.centroids, members=state.members, offsets=state.offsets
            )
        return entry, arrays

    @classmethod
    def restore(
        cls,
        entry: Dict[str, object],
        arrays: Dict[str, np.ndarray],
        block_size: int = DEFAULT_BLOCK_SIZE,
        cells: Optional[IVFBackend] = None,
    ) -> "EntityShard":
        """Rebuild a shard from an :meth:`export` entry.

        Arrays may be memory-mapped: the main matrix stays the lazy
        ``np.memmap``, the small structures (masks, cells, tail) are
        materialised.  An ``ivf`` entry restores its own cells; ``cells``
        asks for an ``exact`` entry to be clustered now, over the matrix as
        saved.  Entries without a ``main_alive`` array were written before
        exhaustive shards carried tombstones and a tail: their one array,
        under key ``""``, is the matrix.
        """
        backend = entry.get("backend", "exact")
        if backend == "ivf":
            config = entry.get("num_cells_config")
            cells = IVFBackend(
                num_cells=None if config is None else int(config),
                nprobe=int(entry["nprobe"]),
                seed=int(entry.get("seed", 0)),
                kmeans_iters=int(entry.get("kmeans_iters", DEFAULT_KMEANS_ITERS)),
            )
        elif backend != "exact":
            raise ValueError(
                f"unknown shard backend {backend!r} in snapshot "
                f"(a newer build may have written it)"
            )
        main = [Entity.from_dict(payload) for payload in entry["entities"]]
        pending = [
            Entity.from_dict(payload) for payload in entry.get("pending_entities", [])
        ]
        if "main_alive" in arrays:
            storage = arrays["storage"]
            alive = np.concatenate(
                [arrays["main_alive"], arrays["pending_alive"]]
            ).astype(bool)
        else:
            storage = arrays[""]
            alive = np.ones(len(main) + len(pending), dtype=bool)
        shard = cls.__new__(cls)
        shard._configure(block_size, cells)
        if "centroids" in arrays:
            coarse = {
                "centroids": np.array(arrays["centroids"], dtype=np.float64),
                "members": np.array(arrays["members"], dtype=np.int64),
                "offsets": np.array(arrays["offsets"], dtype=np.int64),
            }
        else:
            coarse = shard._cluster(storage)
        # The saved generation's map covers its main rows; ``moved`` carries
        # the tombstones and the tail, as the writes since then left them.
        moved = {
            entity.entity_id: _REMOVED
            for entity, live in zip(main + pending, alive)
            if not live
        }
        for offset, entity in enumerate(pending, start=len(main)):
            if alive[offset]:
                moved[entity.entity_id] = offset
        shard._state = ShardState(
            storage=storage,
            entities=_entity_array(main),
            id_to_position={
                entity.entity_id: position for position, entity in enumerate(main)
            },
            pending_vectors=np.array(
                arrays.get("pending_vectors", np.zeros((0, storage.shape[1]))),
                dtype=np.float64,
            ),
            pending_entities=_entity_array(pending),
            alive=alive,
            moved=moved,
            generation=int(entry.get("generation", 0)),
            **coarse,
        )
        return shard
