"""Input generation: everything a run feeds the program, made from ``--seed``.

The knowledge base, the model and their seeds are part of the fixed set-up;
what varies with ``--seed`` is the traffic: arrival offsets, which mention
each request carries, the mutation script, the order of the few-shot worlds.
Each workload's inputs hash to a sha256 fingerprint so two runs can prove
they saw the same inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.kb.entity import Entity, Mention

#: serve_steady: Poisson arrivals at about 40 % of the measured capacity, so
#: requests wait for the batch window and the batch in flight, not a backlog.
STEADY_RATE = 150.0
#: serve_saturated: outstanding requests kept in flight by the generator.
SATURATED_WINDOW = 256
#: Ceiling on closed-loop requests generated per second of run; four times
#: the capacity measured when the benchmark was written, so the sequence
#: does not repeat within a run.
CLOSED_LOOP_RATE_CEILING = 2000
LINK_BATCH = 16
CHURN_READ_BATCH = 32
CHURN_OPS_PER_S = 200.0
CHURN_MIX = (("add", 0.5), ("update", 0.3), ("remove", 0.2))
#: Relative noise of added / updated vectors, as repro.bench.synthetic tiles.
CHURN_NOISE = 0.05


def fingerprint(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(str(part.dtype).encode() + str(part.shape).encode())
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()


def cycling_sample(rng: np.random.Generator, pool_size: int, count: int) -> np.ndarray:
    """``count`` pool positions as back-to-back permutations of the pool.

    Every mention is used once before any repeats, so a run's accuracy is
    taken over (nearly) the same mention set whatever the seed.
    """
    passes = -(-count // pool_size)
    return np.concatenate([rng.permutation(pool_size) for _ in range(passes)])[:count]


def stratified_sample(
    rng: np.random.Generator, groups: Sequence[np.ndarray], count: int
) -> np.ndarray:
    """``count`` pool positions in rounds of one mention per group (world).

    Within a round the worlds come in random order and each world cycles
    through its own mentions, so traffic is uniform over worlds at every
    scale: with world-affinity routing a run of requests for one replica's
    worlds would otherwise decide how the closed loop's window splits between
    the replicas, and capacity would vary by 15 % with the seed.
    """
    rounds = -(-count // len(groups))
    columns = [group[cycling_sample(rng, len(group), rounds)] for group in groups]
    return rng.permuted(np.stack(columns, axis=1), axis=1).reshape(-1)[:count]


def request(pool: Sequence[Mention], position: int, number: int) -> Mention:
    """Request ``number`` of a run: a pool mention under an id unique in the
    run, so spans and results join on it."""
    return replace(pool[int(position)], mention_id=f"r{number}")


@dataclass
class OpenLoopInputs:
    offsets: np.ndarray  # seconds from the start of the run, increasing
    positions: np.ndarray
    fingerprint: str


def open_loop(
    seed: int, groups: Sequence[np.ndarray], duration: float, rate: float = STEADY_RATE
) -> OpenLoopInputs:
    rng = np.random.default_rng([seed, 1])
    gaps = rng.exponential(1.0 / rate, size=int(duration * rate * 1.5) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < duration]
    positions = stratified_sample(rng, groups, len(offsets))
    return OpenLoopInputs(offsets, positions, fingerprint("open_loop", rate, offsets, positions))


@dataclass
class SequenceInputs:
    positions: np.ndarray
    fingerprint: str


def closed_loop(seed: int, groups: Sequence[np.ndarray], duration: float) -> SequenceInputs:
    rng = np.random.default_rng([seed, 2])
    positions = stratified_sample(rng, groups, int(duration * CLOSED_LOOP_RATE_CEILING))
    return SequenceInputs(positions, fingerprint("closed_loop", SATURATED_WINDOW, positions))


def link_batches(seed: int, pool_size: int, duration: float, batch: int) -> SequenceInputs:
    """Mention positions for back-to-back ``link`` calls of ``batch`` mentions."""
    rng = np.random.default_rng([seed, 3])
    count = int(duration * CLOSED_LOOP_RATE_CEILING) // batch * batch
    positions = cycling_sample(rng, pool_size, count).reshape(-1, batch)
    return SequenceInputs(positions, fingerprint("link_batches", batch, positions))


@dataclass
class Mutation:
    kind: str  # "add" | "update" | "remove"
    entity: Entity
    vector: Optional[np.ndarray]


@dataclass
class ChurnInputs:
    reads: np.ndarray  # (batches, CHURN_READ_BATCH) mention positions
    script: List[Mutation]
    fingerprint: str


def churn(
    seed: int,
    pool_size: int,
    duration: float,
    kb: Dict[str, Tuple[List[Entity], np.ndarray]],
) -> ChurnInputs:
    """Reads plus a mutation script that is valid when replayed in order.

    Adds use fresh ids next to a live entity's vector; updates and removes
    pick from the entities live at that point of the script, so no operation
    can fail whatever the timing.
    """
    reads = link_batches(seed, pool_size, duration, CHURN_READ_BATCH).positions
    rng = np.random.default_rng([seed, 4])
    live: List[Tuple[Entity, np.ndarray]] = [
        (entity, vector) for entities, vectors in kb.values()
        for entity, vector in zip(entities, vectors)
    ]
    rms = float(np.sqrt(np.mean(np.concatenate([v for _, v in kb.values()]) ** 2)))
    kinds = [kind for kind, _ in CHURN_MIX]
    shares = [share for _, share in CHURN_MIX]
    script: List[Mutation] = []
    digest = hashlib.sha256()
    for number in range(int(duration * CHURN_OPS_PER_S)):
        kind = kinds[int(rng.choice(len(kinds), p=shares))]
        slot = int(rng.integers(len(live)))
        entity, vector = live[slot]
        if kind == "remove":
            live[slot] = live[-1]
            live.pop()
            script.append(Mutation(kind, entity, None))
        else:
            moved = vector + CHURN_NOISE * rms * rng.standard_normal(vector.shape)
            if kind == "add":
                entity = replace(entity, entity_id=f"{entity.entity_id}+{number}")
                live.append((entity, moved))
            else:
                live[slot] = (entity, moved)
            script.append(Mutation(kind, entity, moved))
            digest.update(moved.tobytes())
        digest.update(f"{kind}:{entity.entity_id}".encode())
    return ChurnInputs(reads, script, fingerprint("churn", reads, digest.hexdigest()))


def live_after(
    kb: Dict[str, Tuple[List[Entity], np.ndarray]], applied: Sequence[Mutation]
) -> Dict[str, Dict[str, np.ndarray]]:
    """``{world: {entity_id: vector}}`` after replaying ``applied`` on ``kb``."""
    live = {
        world: {entity.entity_id: vector for entity, vector in zip(entities, vectors)}
        for world, (entities, vectors) in kb.items()
    }
    for mutation in applied:
        members = live[mutation.entity.domain]
        if mutation.kind == "remove":
            del members[mutation.entity.entity_id]
        else:
            members[mutation.entity.entity_id] = mutation.vector
    return live


def world_order(seed: int, worlds: Sequence[str]) -> Tuple[List[str], str]:
    """fewshot_train: the order the recipe visits the test worlds."""
    rng = np.random.default_rng([seed, 5])
    order = [worlds[int(i)] for i in rng.permutation(len(worlds))]
    return order, fingerprint("world_order", order)
