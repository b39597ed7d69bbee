"""The help-first parallel fan-out of ``ShardedEntityIndex.search``.

A fan-out over at least two shards that each span more than one scan block
scans them on the calling thread and on helper threads together.  It must
return what scanning them one after another returns, bit for bit; it must
re-raise a scan's error in the caller; it must never leave the caller
waiting on a shard no thread has started; and a search that routes, or
fans out over sub-block shards only, must never start a helper.
"""

import sys
import threading

import numpy as np
import pytest

from repro.kb import Entity
from repro.linking import ShardedEntityIndex, candidates

K = 6


def build(block_size=8, seed=0, distinct=None):
    """Four shards of 30, 40, 30 and 7 rows, claimed b, a, c, d (largest
    first, not shard order); the first three span several ``block_size``
    blocks at the default, the last one does not.  With ``distinct``, every
    row is one of that many vectors, so scores tie within and across
    shards."""
    rng = np.random.default_rng(seed)
    pool = None if distinct is None else rng.normal(size=(distinct, 8))
    index = ShardedEntityIndex(block_size=block_size)
    for world, size in (("a", 30), ("b", 40), ("c", 30), ("d", 7)):
        entities = [
            Entity(entity_id=f"{world}{i}", title="", description="", domain=world)
            for i in range(size)
        ]
        vectors = (
            rng.normal(size=(size, 8)) if pool is None
            else pool[rng.integers(distinct, size=size)]
        )
        index.add_shard(world, entities, vectors)
    return index, rng.normal(size=(5, 8))


def sequential_search(index, queries, k=K):
    """The same search with no helper to lend: the caller scans every shard."""
    helpers = candidates._HELPERS
    candidates._HELPERS = candidates._ScanHelpers(0)
    try:
        return index.search(queries, k)
    finally:
        candidates._HELPERS = helpers


def assert_same_results(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.entity_ids == want.entity_ids
        assert np.array_equal(np.array(got.scores), np.array(want.scores))
        assert got.entities == want.entities


def fanout_threads():
    return {thread for thread in threading.enumerate() if thread.name.startswith("repro-fanout")}


def record_scanning_threads(index):
    """Patch every shard's ``search_arrays`` to note the thread that runs it."""
    scanned_by = []
    for world in index.worlds():
        shard = index.shard(world)
        original = shard.search_arrays

        def search_arrays(queries, k, original=original):
            scanned_by.append(threading.current_thread())
            return original(queries, k)

        shard.search_arrays = search_arrays
    return scanned_by


@pytest.mark.parametrize("distinct", [None, 3], ids=["distinct-rows", "tied-rows"])
def test_parallel_fanout_equals_the_sequential_merge_bit_for_bit(distinct, fanout_helper):
    for k in (1, K, 64, 200):
        index, queries = build(seed=k, distinct=distinct)
        expected = sequential_search(index, queries, k)
        assert_same_results(index.search(queries, k), expected)
    assert fanout_helper._executor is not None


def test_a_scan_that_raises_in_the_helper_is_raised_by_the_caller(fanout_helper):
    index, queries = build()
    caller = threading.current_thread()
    both_running = threading.Barrier(2, timeout=10)
    for world in ("a", "b"):  # the two shards claimed first, one per thread
        shard = index.shard(world)
        original = shard.search_arrays

        def search_arrays(queries, k, original=original):
            both_running.wait()
            if threading.current_thread() is not caller:
                raise RuntimeError("scan failed on a helper")
            return original(queries, k)

        shard.search_arrays = search_arrays
    with pytest.raises(RuntimeError, match="on a helper"):
        index.search(queries, K)


def test_a_busy_helper_leaves_every_scan_to_the_caller(fanout_helper):
    """The caller scans every shard no helper has claimed, so a helper
    stuck on other work never holds a search up; when it gets to the
    search's turn, nothing is left to claim."""
    index, queries = build()
    expected = sequential_search(index, queries)
    scanned_by = record_scanning_threads(index)
    release = threading.Event()
    fanout_helper.lend(lambda: release.wait(10), 1)
    try:
        results = index.search(queries, K)
    finally:
        release.set()
    assert scanned_by == [threading.current_thread()] * 4
    assert_same_results(results, expected)


def test_eight_threads_fanning_out_at_once_each_get_the_sequential_result(fanout_helper):
    index, _ = build()
    rng = np.random.default_rng(1)
    batches = [rng.normal(size=(3, 8)) for _ in range(8)]
    expected = [sequential_search(index, batch) for batch in batches]
    start = threading.Barrier(len(batches), timeout=10)
    results = [[] for _ in batches]

    def search(number):
        start.wait()
        for _ in range(20):
            results[number].append(index.search(batches[number], K))

    threads = [threading.Thread(target=search, args=(n,)) for n in range(len(batches))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between claims, not only at waits
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for rounds, want in zip(results, expected):
        assert len(rounds) == 20
        for got in rounds:
            assert_same_results(got, want)


def test_no_helper_starts_for_a_routed_search_or_sub_block_shards(fanout_helper):
    before = fanout_threads()
    index, queries = build()
    index.search_routed(queries, K, routes=["a", "b", "a", "c", "d"])
    small, _ = build(block_size=64)  # every shard fits in one block
    small.search(queries, K)
    assert fanout_helper._executor is None
    assert fanout_threads() == before
    index.search(queries, K)  # three shards span several blocks: one helper
    assert len(fanout_threads() - before) == 1
