"""The entity index: one shard implementation and its snapshots.

``repro.index`` is the storage and retrieval foundation beneath
:mod:`repro.linking.candidates` (which adds per-world routing and merging)
and imports nothing from it:

* :mod:`~repro.index.shard` — :class:`EntityShard`, the one search
  implementation: an immutable state pinned once per search, an exhaustive
  blocked scan by default or :class:`IVFBackend` k-means cells with exact
  re-scoring, online mutation through an exact pending tail and tombstones,
  atomic-swap :meth:`~EntityShard.compact`.
* :mod:`~repro.index.snapshot` — the version-2 snapshot directory format
  (crash-safe write, mmap-able read: only scanned or probed pages of the
  float64 embedding matrix are ever read) and the generation store with its
  atomic ``CURRENT`` pointer swap for online compaction under serving.

Quickstart::

    from repro.index import IVFBackend, write_generation

    index = biencoder.build_sharded_index(entities, backend=IVFBackend(nprobe=8))
    index.search(queries, k=64)                    # probe + exact re-score
    index.add_entities(new_entities)               # linkable immediately
    write_generation(index, "snapshots/kb")
    restored = biencoder.load_sharded_index("snapshots/kb", mmap=True)
"""

from .shard import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_KMEANS_ITERS,
    DEFAULT_NPROBE,
    EntityShard,
    IVFBackend,
    RetrievalResult,
    ShardState,
    blocked_topk,
    build_results,
    default_num_cells,
    kmeans,
)
from .snapshot import (
    CURRENT_MARKER,
    compact_to_generation,
    current_generation,
    list_generations,
    next_generation_number,
    read_snapshot,
    write_generation,
    write_snapshot,
)

__all__ = [
    "CURRENT_MARKER",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_KMEANS_ITERS",
    "DEFAULT_NPROBE",
    "EntityShard",
    "IVFBackend",
    "RetrievalResult",
    "ShardState",
    "blocked_topk",
    "build_results",
    "compact_to_generation",
    "current_generation",
    "default_num_cells",
    "kmeans",
    "list_generations",
    "next_generation_number",
    "read_snapshot",
    "write_generation",
    "write_snapshot",
]
