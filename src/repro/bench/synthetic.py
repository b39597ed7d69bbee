"""Synthetic KB enlarger: scale a real entity slice to benchmark size.

The zeshel slice this repo trains on holds a few hundred entities — three
orders of magnitude short of the million-entity KBs the approximate index
layer (:mod:`repro.index`) exists for.  Rather than ship gigabytes of real
data, the index benchmarks *enlarge* a small real KB deterministically:

* :func:`enlarge_kb` tiles the base entities — replica ``j`` of entity
  ``i`` becomes an *alias* entity (``"<id>~j"``, title suffixed) whose
  embedding is the base embedding plus seeded Gaussian noise.  Tiling
  preserves the base KB's cluster geometry (aliases huddle around their
  base point), which is exactly the structure IVF coarse cells exploit, so
  recall measured on an enlarged KB is a fair proxy for recall on a real
  large KB with natural cluster structure.
* :func:`synthetic_kb` builds the base itself from a seeded generator
  (``num_base`` cluster centres per world) and then enlarges it, so index
  benchmarks need no real data at all.

Everything is a pure function of its arguments and ``seed`` — two calls
with equal arguments produce bit-identical entities and embeddings, so a
benchmark run or a test is reproducible from its seed alone.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..kb.entity import Entity

#: Relative noise applied to alias embeddings (fraction of the base
#: embedding's RMS norm); small enough that aliases stay in their base
#: point's IVF cell, large enough that they are not duplicate rows.
DEFAULT_NOISE = 0.05


def alias_entity(base: Entity, replica: int) -> Entity:
    """The ``replica``-th alias of a base entity (replica 0 is the base)."""
    if replica == 0:
        return base
    return Entity(
        entity_id=f"{base.entity_id}~{replica}",
        title=f"{base.title} (alias {replica})",
        description=base.description,
        domain=base.domain,
        entity_type=base.entity_type,
    )


def enlarge_kb(
    entities: Sequence[Entity],
    vectors: np.ndarray,
    target_count: int,
    seed: int = 0,
    noise: float = DEFAULT_NOISE,
) -> Tuple[List[Entity], np.ndarray]:
    """Tile ``entities`` with noisy aliases up to ``target_count`` rows.

    Base entities come first (their embeddings bit-identical to the input),
    followed by alias generations in round-robin order — replica 1 of every
    base, then replica 2, ... — so any prefix of the output is itself a
    valid KB.  Alias embeddings are ``base + noise * rms * N(0, I)`` with a
    generator seeded by ``seed`` only; the result is deterministic.
    """
    entities = list(entities)
    vectors = np.asarray(vectors, dtype=np.float64)
    if len(entities) != len(vectors):
        raise ValueError("entities and vectors must align")
    if not entities:
        raise ValueError("cannot enlarge an empty KB")
    if target_count < len(entities):
        raise ValueError(
            f"target_count {target_count} is below the base KB size {len(entities)}"
        )

    rng = np.random.default_rng(seed)
    rms = float(np.sqrt(np.mean(vectors**2))) or 1.0
    out_entities: List[Entity] = list(entities)
    blocks: List[np.ndarray] = [vectors]
    replica = 1
    remaining = target_count - len(entities)
    while remaining > 0:
        take = min(remaining, len(entities))
        out_entities.extend(alias_entity(entities[i], replica) for i in range(take))
        blocks.append(
            vectors[:take] + noise * rms * rng.standard_normal((take, vectors.shape[1]))
        )
        remaining -= take
        replica += 1
    return out_entities, np.concatenate(blocks, axis=0)


def synthetic_kb(
    target_count: int,
    dim: int = 32,
    num_base: int = 512,
    num_worlds: int = 4,
    seed: int = 0,
    noise: float = DEFAULT_NOISE,
) -> Tuple[List[Entity], np.ndarray]:
    """A fully synthetic clustered KB of ``target_count`` entities.

    ``num_base`` seeded Gaussian cluster centres are split round-robin over
    ``num_worlds`` domains and then enlarged with :func:`enlarge_kb` — the
    result has the cluster-around-centres geometry real entity embedding
    spaces exhibit, at any size, with no data files.
    """
    if num_base <= 0 or num_worlds <= 0:
        raise ValueError("num_base and num_worlds must be positive")
    num_base = min(num_base, target_count)
    rng = np.random.default_rng(seed)
    base_vectors = rng.standard_normal((num_base, dim))
    base_entities = [
        Entity(
            entity_id=f"syn{i % num_worlds}:{i}",
            title=f"synthetic entity {i}",
            description=f"synthetic benchmark entity number {i}",
            domain=f"syn{i % num_worlds}",
        )
        for i in range(num_base)
    ]
    return enlarge_kb(
        base_entities, base_vectors, target_count, seed=seed + 1, noise=noise
    )
