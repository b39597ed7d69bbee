"""Inputs are a function of the seed; the mutation script replays cleanly."""

import numpy as np

from perf import workloads
from repro.kb.entity import Entity


def _kb():
    rng = np.random.default_rng(0)
    return {
        world: ([Entity(f"{world}:{i}", f"t{i}", "d", world) for i in range(50)],
                rng.standard_normal((50, 8)))
        for world in ("a", "b")
    }


GROUPS = [np.arange(0, 60), np.arange(60, 100)]


def test_same_seed_same_inputs_other_seed_other_inputs():
    one = workloads.open_loop(3, GROUPS, 2.0)
    again = workloads.open_loop(3, GROUPS, 2.0)
    other = workloads.open_loop(4, GROUPS, 2.0)
    assert one.fingerprint == again.fingerprint != other.fingerprint
    assert np.array_equal(one.offsets, again.offsets)
    assert np.all(np.diff(one.offsets) > 0) and one.offsets[-1] < 2.0
    assert workloads.closed_loop(3, GROUPS, 1.0).fingerprint != workloads.closed_loop(4, GROUPS, 1.0).fingerprint
    assert workloads.world_order(1, "abcd")[1] == workloads.world_order(1, "abcd")[1]


def test_cycling_sample_uses_every_mention_before_repeating():
    sample = workloads.cycling_sample(np.random.default_rng(0), 10, 25)
    assert sorted(sample[:10]) == list(range(10)) and sorted(sample[10:20]) == list(range(10))


def test_stratified_sample_visits_every_world_in_every_round():
    sample = workloads.stratified_sample(np.random.default_rng(0), GROUPS, 200)
    rounds = sample.reshape(-1, 2)
    assert np.all((rounds < 60).sum(axis=1) == 1)  # one mention of each world per round
    first_world = sample[sample < 60]
    assert sorted(first_world[:60]) == list(range(60))  # and each world cycles its own mentions


def test_churn_script_is_valid_in_order_and_keeps_its_mix():
    kb = _kb()
    inputs = workloads.churn(5, pool_size=40, duration=5.0, kb=kb)
    assert inputs.fingerprint == workloads.churn(5, 40, 5.0, kb).fingerprint
    live = {entity.entity_id for entities, _ in kb.values() for entity in entities}
    for mutation in inputs.script:
        if mutation.kind == "add":
            assert mutation.entity.entity_id not in live
            live.add(mutation.entity.entity_id)
        else:
            assert mutation.entity.entity_id in live
            if mutation.kind == "remove":
                live.remove(mutation.entity.entity_id)
    replayed = workloads.live_after(kb, inputs.script)
    assert {i for members in replayed.values() for i in members} == live
    kinds = [mutation.kind for mutation in inputs.script]
    assert len(kinds) == 1000 and 0.4 < kinds.count("add") / 1000 < 0.6
