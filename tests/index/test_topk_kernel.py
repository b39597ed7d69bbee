"""The top-k selection kernel: select, then sort, once per window.

``_sorted_topk`` must return exactly what sorting every column returns (the
reference below is the body it replaced), and ``blocked_topk`` exactly the
top-k of the full score matrix — ties at the group cut, at the running cut
and across block and window boundaries included.  Four tests count what is
sorted rather than timing it, so a return to sorting whole windows, or to
one selection per block, fails on any machine.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import EntityShard, IVFBackend, blocked_topk, build_results
from repro.index import shard as shard_module
from repro.index.shard import _sorted_topk
from repro.kb import Entity
from repro.linking import ShardedEntityIndex

K = 5


def reference_topk(scores, positions, k):
    """Sort every column under (score desc, position asc), keep ``k``."""
    order = np.lexsort((positions, -scores), axis=1)[:, :k]
    return (
        np.take_along_axis(scores, order, axis=1),
        np.take_along_axis(positions, order, axis=1),
    )


def assert_same(actual, expected):
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def make_entities(count):
    return [
        Entity(entity_id=f"e{i}", title=f"entity {i}", description="", domain="w")
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# _sorted_topk against the sort-everything reference
# ----------------------------------------------------------------------
#: Widths around the cut, and one wide enough that a single row takes the
#: selection path; the tallest row count takes it at every width above ``K``.
WIDTHS = [K - 1, K, K + 1, 2 * K, 2 * K + 1, shard_module._DIRECT_SORT_SIZE + 7]
ROW_COUNTS = [1, 3, 16, shard_module._DIRECT_SORT_SIZE // K + 1]


@st.composite
def tied_buffers(draw):
    """Score rows over at most four distinct values, so ties sit on and
    across the cut; some rows are padded with ``-inf`` down to fewer than
    ``K`` real candidates, the way a celled probe pads."""
    num_rows = draw(st.sampled_from(ROW_COUNTS))
    width = draw(st.sampled_from(WIDTHS))
    levels = np.array(draw(st.lists(
        st.floats(-2.0, 2.0, allow_nan=False), min_size=1, max_size=4
    )))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = levels[rng.integers(len(levels), size=(num_rows, width))]
    positions = rng.permuted(np.tile(np.arange(width, dtype=np.int64), (num_rows, 1)), axis=1)
    if draw(st.booleans()):
        real = rng.integers(0, width + 1, size=num_rows)
        padding = np.arange(width) >= real[:, None]
        scores[padding] = -np.inf
        positions[padding] = -1
    return scores, positions


@settings(max_examples=150, deadline=None)
@given(tied_buffers())
def test_sorted_topk_equals_sorting_everything(buffer):
    scores, positions = buffer
    assert_same(_sorted_topk(scores, positions, K), reference_topk(scores, positions, K))


def test_sorted_topk_resolves_a_straddling_row_without_touching_the_others():
    """One row's ties straddle the cut; its neighbours select exactly."""
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(16, 400))
    positions = rng.permuted(np.tile(np.arange(400, dtype=np.int64), (16, 1)), axis=1)
    scores[7, :300] = 9.0   # 300 columns tie for the top 64 places of row 7
    assert_same(_sorted_topk(scores, positions, 64), reference_topk(scores, positions, 64))


# ----------------------------------------------------------------------
# blocked_topk against the full score matrix
# ----------------------------------------------------------------------
def brute_force(queries, matrix, k, block_size, alive=None):
    """Top-k of the full score matrix over the rows ``alive`` marks (all
    when ``None``).  The products are taken block by block, as the scan
    takes them: BLAS rounds the last bit of a product differently for
    different operand shapes, and this oracle is about selection, not
    arithmetic."""
    scores = np.concatenate(
        [
            queries @ matrix[start:start + block_size].T
            for start in range(0, len(matrix), block_size)
        ],
        axis=1,
    )
    positions = np.arange(len(matrix), dtype=np.int64)
    if alive is not None:
        scores, positions = scores[:, alive], positions[alive]
    return reference_topk(scores, np.broadcast_to(positions, scores.shape), k)


def duplicated_matrix(rng, num_rows, dim):
    """A matrix drawn from a handful of distinct rows: every score is tied
    many times over, across any block boundary."""
    distinct = rng.normal(size=(6, dim))
    return distinct[rng.integers(len(distinct), size=num_rows)]


@pytest.mark.parametrize("block_size", [1, 7, 64, 700])
def test_blocked_topk_equals_brute_force_on_duplicated_rows(block_size):
    rng = np.random.default_rng(block_size)
    matrix = duplicated_matrix(rng, 700, 8)
    queries = rng.normal(size=(5, 8))
    expected = brute_force(queries, matrix, 64, block_size)
    assert_same(blocked_topk(queries, matrix, 64, block_size=block_size), expected)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_rows=st.integers(1, 90),
    block_size=st.sampled_from([1, 7, K, 90]),
    k=st.sampled_from([1, K, 200]),
)
def test_blocked_topk_equals_brute_force(seed, num_rows, block_size, k):
    """Random shapes, ``k`` above the row count included; half the rows are
    duplicates, so ties straddle both the cut and the block boundaries."""
    rng = np.random.default_rng(seed)
    matrix = duplicated_matrix(rng, num_rows, 4)
    matrix[::2] = rng.normal(size=matrix[::2].shape)
    queries = rng.normal(size=(3, 4))
    assert_same(
        blocked_topk(queries, matrix, k, block_size=block_size),
        brute_force(queries, matrix, k, block_size),
    )


# ----------------------------------------------------------------------
# The windowed scan: grouped cut, running cut, tombstones
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_rows=st.integers(1, 90),
    block_size=st.sampled_from([1, 4, 7]),
    blocks_per_window=st.integers(1, 3),
    group_size=st.sampled_from([1, 2, 3]),
    k=st.sampled_from([1, 2, K, 200]),
    all_duplicates=st.booleans(),
    tombstones=st.booleans(),
    direct_sort_size=st.sampled_from([0, shard_module._DIRECT_SORT_SIZE]),
)
def test_windowed_scan_equals_brute_force(
    seed, num_rows, block_size, blocks_per_window, group_size, k,
    all_duplicates, tombstones, direct_sort_size,
):
    """Windows of a few blocks and groups of a few columns, so a matrix of
    at most 90 rows spans several windows and its last window and last
    group are ragged.  Rows are drawn from six distinct ones (all of them,
    or every other one), so group maxima tie at the group cut and scores tie
    across window boundaries; tombstones fall in every window; ``k=200``
    exceeds every live row count."""
    rng = np.random.default_rng(seed)
    queries = rng.normal(size=(3, 4))
    matrix = duplicated_matrix(rng, num_rows, 4)
    if not all_duplicates:
        matrix[::2] = rng.normal(size=matrix[::2].shape)
    alive = rng.random(num_rows) < 0.7 if tombstones else None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            shard_module, "_WINDOW_SCORES", blocks_per_window * block_size * len(queries)
        )
        patch.setattr(shard_module, "_GROUP_SIZE", group_size)
        patch.setattr(shard_module, "_GROUPED_MIN_SIZE", 0)
        patch.setattr(shard_module, "_DIRECT_SORT_SIZE", direct_sort_size)
        actual = shard_module._scan_topk(queries, matrix, k, block_size, alive)
        expected = brute_force(queries, matrix, k, block_size, alive)
    assert_same(actual, expected)


# ----------------------------------------------------------------------
# Both coarse stages return what the replaced kernel returned
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "cells", [None, IVFBackend(num_cells=12, nprobe=3)], ids=["exhaustive", "celled"]
)
def test_search_is_bit_identical_to_sorting_everything(cells, monkeypatch):
    """Search a mutated shard (tombstones + pending tail), then search it
    again with the kernel swapped for the sort-everything reference."""
    rng = np.random.default_rng(11)
    vectors = rng.normal(size=(3000, 8))
    vectors[1000:2000] = vectors[:1000]           # exact duplicates → tied scores
    entities = make_entities(3100)
    shard = EntityShard(entities[:3000], vectors, block_size=512, cells=cells)
    shard.remove([entity.entity_id for entity in entities[5:3000:7]])
    shard.add(entities[3000:], rng.normal(size=(100, 8)))
    queries = rng.normal(size=(16, 8))

    actual = shard.search_arrays(queries, 64)
    monkeypatch.setattr(shard_module, "_sorted_topk", reference_topk)
    expected = shard.search_arrays(queries, 64)
    assert_same(actual[:2], expected[:2])
    assert np.array_equal(actual[2], expected[2])


# ----------------------------------------------------------------------
# The celled probe against the probe written out one query at a time
# ----------------------------------------------------------------------
def reference_probe(shard, queries, k):
    """Per query: its top-``nprobe`` cells by ``queries @ centroids.T``, their
    live members plus the live tail, every pair scored with one
    ``einsum("td,td->t")`` and the lot ordered by ``np.lexsort`` under
    (score desc, position asc); rows padded with (-inf, -1, None) to the
    widest one."""
    state = shard._state
    num_main = state.num_main
    nprobe = min(shard._cells.nprobe, len(state.centroids))
    vectors = np.concatenate([np.asarray(state.storage), state.pending_vectors])
    entities = np.concatenate([state.entities, state.pending_entities])
    tail = num_main + np.flatnonzero(state.alive[num_main:])
    cell_scores = queries @ state.centroids.T
    rows = []
    for query, row_scores in zip(queries, cell_scores):
        cells = np.argsort(-row_scores, kind="stable")[:nprobe]
        members = np.concatenate(
            [state.members[state.offsets[c]:state.offsets[c + 1]] for c in cells]
            + [np.zeros(0, dtype=np.int64)]
        )
        positions = np.concatenate([members[state.alive[members]], tail])
        scores = np.einsum(
            "td,td->t", vectors[positions], np.repeat(query[None], len(positions), axis=0)
        )
        order = np.lexsort((positions, -scores))[:k]
        rows.append((scores[order], positions[order]))
    width = max(len(positions) for _, positions in rows)
    scores = np.full((len(queries), width), -np.inf)
    positions = np.full((len(queries), width), -1, dtype=np.int64)
    found = np.full((len(queries), width), None, dtype=object)
    for row, (row_scores, row_positions) in enumerate(rows):
        scores[row, :len(row_scores)] = row_scores
        positions[row, :len(row_positions)] = row_positions
        found[row, :len(row_positions)] = entities[row_positions]
    return scores, positions, found


def mutated_shard(cells=None):
    """200 main rows, half of them duplicates of the other half; a tail of 60
    rows copied from main rows, and tombstones among both.  Exhaustive, or
    celled by ``cells``."""
    rng = np.random.default_rng(5)
    vectors = rng.normal(size=(200, 8))
    vectors[100:] = vectors[:100]
    entities = make_entities(270)
    shard = EntityShard(entities[:200], vectors, cells=cells)
    shard.add(entities[200:260], vectors[rng.integers(200, size=60)])
    shard.update(entities[3:30:3], vectors[rng.integers(200, size=9)])
    shard.remove([entity.entity_id for entity in entities[40:200:9] + entities[200:260:7]])
    return shard, rng.normal(size=(12, 8))


def mutated_celled_shard(nprobe):
    """:func:`mutated_shard` in 8 cells; the tail is longer than any cell."""
    shard, queries = mutated_shard(IVFBackend(num_cells=8, nprobe=nprobe))
    assert max(np.diff(shard._state.offsets)) < shard.num_pending
    return shard, queries


@pytest.mark.parametrize("k", [K, 64, 500], ids=["k=5", "k=64", "k>candidates"])
@pytest.mark.parametrize("nprobe", [1, 3, 8, 20])
def test_celled_probe_equals_the_probe_written_out(nprobe, k):
    """Below the cell count against the reference; at or above it (nprobe 8
    and 20) a probe of every cell is the scan, so against the same shard
    built exhaustive."""
    shard, queries = mutated_celled_shard(nprobe)
    if nprobe < 8:
        expected = reference_probe(shard, queries, k)
    else:
        expected = mutated_shard()[0].search_arrays(queries, k)
    actual = shard.search_arrays(queries, k)
    if k > 64 and nprobe < 8:   # rows probed different cells: short ones pad
        assert (actual[1] == -1).any()
    assert_same(actual[:2], expected[:2])
    assert np.array_equal(actual[2], expected[2])
    # A strided query batch sums in the same order as a contiguous one.
    assert_same(shard.search_arrays(np.asfortranarray(queries), k)[:2], expected[:2])


def test_celled_probe_of_a_shard_with_every_row_removed():
    shard, queries = mutated_celled_shard(3)
    shard.remove([entity.entity_id for entity in shard.entities()])
    expected = reference_probe(shard, queries, 64)
    actual = shard.search_arrays(queries, 64)
    assert actual[0].shape == (len(queries), 0)
    assert_same(actual[:2], expected[:2])


# ----------------------------------------------------------------------
# The fan-out merge calls the same kernel
# ----------------------------------------------------------------------
def reference_merge(blocks, k):
    """The merge the kernel call replaced: a three-key lexsort of the whole
    ``Q x shards*k`` buffer under (score desc, shard order, position asc)."""
    scores = np.concatenate([block[0] for block in blocks], axis=1)
    positions = np.concatenate([block[1] for block in blocks], axis=1)
    entities = np.concatenate([block[2] for block in blocks], axis=1)
    shard_orders = np.concatenate(
        [np.full(block[1].shape, order, dtype=np.int64) for order, block in enumerate(blocks)],
        axis=1,
    )
    order = np.lexsort((positions, shard_orders, -scores), axis=1)[:, :k]
    return build_results(
        np.take_along_axis(scores, order, axis=1),
        np.take_along_axis(entities, order, axis=1),
    )


@pytest.mark.parametrize("k", [3, K, 64], ids=["k<shard", "k=5", "k>shards"])
@pytest.mark.parametrize("num_queries", [2, 120], ids=["direct-sort", "selected"])
def test_fanout_merge_breaks_ties_by_shard_then_position(k, num_queries, fanout_helper):
    """Every shard holds the same few distinct vectors many times over, so
    scores tie within a shard and across shards; the uneven last shard adds
    ``-inf`` padding once ``k`` exceeds its size.  Three shards span several
    8-row blocks, so the fan-out scans them on the caller and the helper."""
    rng = np.random.default_rng(k)
    distinct = rng.normal(size=(4, 8))
    index = ShardedEntityIndex(block_size=8)
    for world, size in (("a", 30), ("b", 30), ("c", 30), ("d", 7)):
        entities = [
            Entity(entity_id=f"{world}{i}", title=f"{world} {i}", description="", domain=world)
            for i in range(size)
        ]
        index.add_shard(world, entities, distinct[rng.integers(len(distinct), size=size)])
    queries = rng.normal(size=(num_queries, 8))

    expected = reference_merge(
        [index.shard(world).search_arrays(queries, k) for world in ("a", "b", "c", "d")], k
    )
    for got, want in zip(index.search(queries, k), expected):
        assert got.entity_ids == want.entity_ids
        assert got.scores == want.scores
    assert fanout_helper._executor is not None


# ----------------------------------------------------------------------
# Counting what is sorted
# ----------------------------------------------------------------------
@pytest.fixture
def sorted_shapes(monkeypatch):
    """Shape of the first key of every numpy sort made while the test runs."""
    shapes = []

    def record(name, first_key):
        original = getattr(np, name)

        def wrapper(keys, *args, **kwargs):
            shapes.append(np.shape(first_key(keys)))
            return original(keys, *args, **kwargs)

        monkeypatch.setattr(np, name, wrapper)

    record("lexsort", lambda keys: keys[0])
    record("argsort", lambda array: array)
    record("sort", lambda array: array)
    return shapes


def test_scan_sorts_a_small_multiple_of_k_per_compaction(sorted_shapes):
    """16 queries, k=64, over a 25k x 32 shard: at most one sort per window
    plus one, each of about ``Q x k`` survivors — not of the ``Q x 25k``
    window, nor one per 2048-row block (sorting the ``Q x ~2300`` buffer at
    every block was 478k elements per scan)."""
    num_queries, k = 16, 64
    rng = np.random.default_rng(2)
    vectors = rng.normal(size=(25_000, 32))
    shard = EntityShard(make_entities(25_000), vectors)
    queries = vectors[:num_queries] + 0.05 * rng.normal(size=(num_queries, 32))
    del sorted_shapes[:]

    shard.search_arrays(queries, k)

    block = shard_module.DEFAULT_BLOCK_SIZE
    span = block * max(1, shard_module._WINDOW_SCORES // (num_queries * block))
    windows = -(-25_000 // span)
    assert 1 <= len(sorted_shapes) <= windows + 1
    elements = sum(int(np.prod(shape)) for shape in sorted_shapes)
    assert elements <= 2 * num_queries * k * len(sorted_shapes)


def test_tombstones_do_not_widen_the_selection(sorted_shapes):
    """A fifth of the shard removed: results equal a shard rebuilt from the
    survivors, and the kernel still sorts ``k`` columns per query — not one
    more per tombstone."""
    k = 64
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(5000, 16))
    entities = make_entities(5000)
    removed = rng.choice(5000, size=1000, replace=False)
    survivors = np.setdiff1d(np.arange(5000), removed)
    queries = rng.normal(size=(8, 16))

    shard = EntityShard(entities, vectors, block_size=512)
    shard.remove([entities[i].entity_id for i in removed])
    del sorted_shapes[:]
    results = shard.search(queries, k)
    assert max(shape[-1] for shape in sorted_shapes) <= 2 * k

    rebuilt = EntityShard([entities[i] for i in survivors], vectors[survivors], block_size=512)
    for got, want in zip(results, rebuilt.search(queries, k)):
        assert got.entity_ids == want.entity_ids
        assert got.scores == want.scores


def test_a_serving_size_search_sorts_once(monkeypatch, sorted_shapes):
    """8 queries, 64 rows, k=8 (a ``serve_*`` search of one world): one
    sort of the whole window, and no grouped pass — no partition of group
    maxima or of scores."""
    partitioned = []
    for name in ("partition", "argpartition"):
        original = getattr(np, name)

        def wrapper(array, *args, _original=original, **kwargs):
            partitioned.append(np.shape(array))
            return _original(array, *args, **kwargs)

        monkeypatch.setattr(np, name, wrapper)
    rng = np.random.default_rng(6)
    shard = EntityShard(make_entities(64), rng.normal(size=(64, 16)))
    queries = rng.normal(size=(8, 16))
    del sorted_shapes[:]

    shard.search_arrays(queries, 8)

    assert sorted_shapes == [(8, 64)]
    assert partitioned == []


def test_a_window_that_only_ties_the_running_cut_is_skipped(monkeypatch, sorted_shapes):
    """Integer scores, so ties are exact whatever the BLAS.  The first
    window holds each query's scores 0..63; every later window scores at
    most 59, each query's 5th best, and reaches it.  A later column equal to
    the cut loses the tie-break to the earlier one, so each later window is
    skipped after its products and the scan sorts once."""
    rng = np.random.default_rng(7)
    first = np.stack([rng.permutation(64), rng.permutation(64)], axis=1)
    later = rng.integers(0, 60, size=(3 * 64, 2))
    later[::17] = 59
    matrix = np.concatenate([first, later]).astype(np.float64)
    queries = np.eye(2)
    monkeypatch.setattr(shard_module, "_WINDOW_SCORES", 2 * 64)
    monkeypatch.setattr(shard_module, "_GROUP_SIZE", 4)
    monkeypatch.setattr(shard_module, "_GROUPED_MIN_SIZE", 0)
    del sorted_shapes[:]

    actual = blocked_topk(queries, matrix, K, block_size=64)

    assert len(sorted_shapes) == 1
    assert_same(actual, brute_force(queries, matrix, K, 64))
    assert np.array_equal(actual[0], np.tile(np.arange(63.0, 58.0, -1), (2, 1)))
