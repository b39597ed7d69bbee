"""Index lab: approximate vs exact candidate generation at 100k entities.

Three measurement families land in ``BENCH_index.json``:

* **Candidate-generation throughput** — the same query batch pushed through
  :class:`~repro.index.EntityShard` on both coarse stages, the exhaustive
  blocked top-k scan and :class:`~repro.index.IVFBackend` cells (coarse
  probe + exact re-scoring), over a 100k-entity synthetic KB (:func:`repro.bench.synthetic_kb`: real cluster
  geometry, no data files).  The IVF path must be at least as fast as the
  exact scan while its recall@64 against the exact top-64 stays **>= 0.95**.
  The two throughputs are reported, not their ratio: a faster exact scan
  would read as a regression of a "speedup" key.

* **Quantized codecs** — the same KB stored as float16 and int8:
  compression ratio vs the float64 reference and the recall@64 cost of
  searching the quantized matrix (re-scoring reads decoded rows, so this
  isolates quantization error from probe misses).

* **mmap vs in-RAM RSS** — a subprocess loads the persisted snapshot both
  ways and reports its RSS growth; the memory-mapped load must stay well
  under the in-RAM copy (pages are shared and lazy), which is what makes
  forked process replicas cheap.

The last test demonstrates the regression gate on the fresh payload.
Run directly with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_index.py -q -s
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench import compare, synthetic_kb
from repro.eval import recall_at_k
from repro.index import EntityShard, IVFBackend, encode_matrix
from repro.linking import ShardedEntityIndex

SEED = 13
NUM_ENTITIES = 100_000
DIM = 32
NUM_QUERIES = 256
K = 64
NPROBE = 8
#: More cells than the sqrt(N) default: each coarse cell then holds ~100
#: vectors, so probing 8 cells re-scores <1% of the KB while the synthetic
#: cluster structure keeps the true neighbours inside the probed cells.
NUM_CELLS = 1024
NUM_BASE = 512

#: Queries are noisy copies of random KB rows — the entity-linking shape of
#: traffic (mention embeddings land near their entity's embedding).
QUERY_NOISE = 0.05

BENCH_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_index.json"


def _make_queries(vectors, rng):
    rows = rng.choice(len(vectors), size=NUM_QUERIES, replace=False)
    rms = float(np.sqrt(np.mean(vectors**2)))
    return vectors[rows] + QUERY_NOISE * rms * rng.standard_normal((NUM_QUERIES, DIM))


def _best_qps(search_arrays, queries, repeats):
    """Queries/second of the best of ``repeats`` timed passes."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        search_arrays(queries, K)
        best = min(best, time.perf_counter() - start)
    return len(queries) / best


def _subprocess_rss_delta_kb(snapshot_path, mmap):
    """RSS growth (KiB) of loading the snapshot in a fresh interpreter.

    Reads ``/proc/self/statm`` (current resident pages, not the
    ``ru_maxrss`` high-water mark) so that lazily-mapped pages the load
    never touches are visibly absent from the mapped number.
    """
    code = (
        "import os\n"
        "def rss_kb():\n"
        "    with open('/proc/self/statm') as handle:\n"
        "        pages = int(handle.read().split()[1])\n"
        "    return pages * os.sysconf('SC_PAGE_SIZE') // 1024\n"
        "from repro.linking import ShardedEntityIndex\n"
        "before = rss_kb()\n"
        f"index = ShardedEntityIndex.load({str(snapshot_path)!r}, mmap={mmap!r})\n"
        "for world in index.worlds():\n"
        "    index.shard(world)\n"
        "print(rss_kb() - before)\n"
    )
    env = dict(os.environ)
    repo_src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, check=True,
    )
    return int(out.stdout.strip())


@pytest.fixture(scope="module")
def index_results():
    rng = np.random.default_rng(SEED)
    entities, vectors = synthetic_kb(
        NUM_ENTITIES, dim=DIM, num_base=NUM_BASE, num_worlds=4, seed=SEED
    )
    queries = _make_queries(vectors, rng)

    cells = IVFBackend(num_cells=NUM_CELLS, nprobe=NPROBE, seed=SEED)
    exact = EntityShard(entities, vectors)
    exact_qps = _best_qps(exact.search_arrays, queries, repeats=2)
    exact_results = exact.search(queries, k=K)

    shard = EntityShard(entities, vectors, cells=cells)
    ivf_qps = _best_qps(shard.search_arrays, queries, repeats=3)
    ivf_results = shard.search(queries, k=K)
    recall = recall_at_k(ivf_results, exact_results)

    # Quantized variants: probe structure identical (same seed/cells), the
    # re-scoring just reads decoded rows — recall drift is quantization cost.
    quantized = {}
    float64_bytes = vectors.nbytes
    for codec in ("float16", "int8"):
        storage = encode_matrix(vectors, codec)
        qshard = EntityShard(entities, storage, cells=cells)
        quantized[codec] = {
            "recall_at_64": recall_at_k(qshard.search(queries, k=K), exact_results),
            "storage_bytes": int(storage.nbytes),
            "compression_vs_float64": float64_bytes / storage.nbytes,
        }

    # mmap vs in-RAM: persist a sharded snapshot once, load it twice in
    # fresh interpreters and compare RSS growth.
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "snap"
        # Hand the prebuilt matrix per world, no embed_fn needed.
        sharded = ShardedEntityIndex()
        order = {}
        for position, entity in enumerate(entities):
            order.setdefault(entity.domain, []).append(position)
        for world, positions in order.items():
            sharded.add_shard(
                world, [entities[i] for i in positions], vectors[positions]
            )
        sharded.save(snapshot)
        in_ram_kb = _subprocess_rss_delta_kb(snapshot, mmap=False)
        mmap_kb = _subprocess_rss_delta_kb(snapshot, mmap=True)

    return {
        "exact": {"candidate_qps": exact_qps},
        "ivf": {
            "candidate_qps": ivf_qps,
            "recall_at_64": recall,
            "num_cells": shard.num_cells,
            "nprobe": NPROBE,
        },
        "quantized": quantized,
        "mmap": {
            "in_ram_rss_delta_kb": in_ram_kb,
            "mmap_rss_delta_kb": mmap_kb,
            "vector_matrix_kb": float64_bytes // 1024,
        },
    }


def _payload(results):
    return {
        "config": {
            "num_entities": NUM_ENTITIES, "dim": DIM, "seed": SEED,
            "num_queries": NUM_QUERIES, "k": K, "nprobe": NPROBE,
            "num_cells": NUM_CELLS, "num_base": NUM_BASE,
            "query_noise": QUERY_NOISE,
        },
        **results,
    }


def test_ivf_speedup_and_recall(index_results):
    """Acceptance: the cells are no slower than the scan, at recall@64 >= 0.95."""
    exact, ivf = index_results["exact"], index_results["ivf"]
    print(
        f"\n  exact {exact['candidate_qps']:.0f} q/s, "
        f"ivf {ivf['candidate_qps']:.0f} q/s, recall@64 {ivf['recall_at_64']:.4f}"
    )
    assert ivf["candidate_qps"] >= exact["candidate_qps"]
    assert ivf["recall_at_64"] >= 0.95

    payload = _payload(index_results)
    BENCH_OUTPUT.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"  wrote {BENCH_OUTPUT.name}")


def test_quantized_codecs_compress_without_recall_collapse(index_results):
    quantized = index_results["quantized"]
    # int8 at dim 32: 32 code bytes + 16 bytes of per-row scale/zero vs 256
    # float64 bytes, so the ratio lands at 16/3 rather than a full 8x.
    assert quantized["float16"]["compression_vs_float64"] >= 3.9
    assert quantized["int8"]["compression_vs_float64"] >= 5.0
    assert quantized["float16"]["recall_at_64"] >= 0.98
    assert quantized["int8"]["recall_at_64"] >= 0.92


def test_mmap_load_cheaper_than_in_ram(index_results):
    mmap = index_results["mmap"]
    print(
        f"\n  RSS delta: in-RAM {mmap['in_ram_rss_delta_kb']} KiB, "
        f"mmap {mmap['mmap_rss_delta_kb']} KiB "
        f"(vector matrix {mmap['vector_matrix_kb']} KiB)"
    )
    # Both loads pay for the deserialized entity metadata; only the in-RAM
    # load should additionally pay for the ~25 MiB vector matrix.  Require
    # the mapped load to skip at least half of it (page-rounding slack).
    saved = mmap["in_ram_rss_delta_kb"] - mmap["mmap_rss_delta_kb"]
    assert saved >= 0.5 * mmap["vector_matrix_kb"]


def test_regression_gate_on_fresh_index_payload(index_results):
    payload = _payload(index_results)
    report = compare(payload, payload, rtol=0.25)
    assert report.passed and len(report.checks) >= 5

    degraded = json.loads(json.dumps(payload))
    degraded["ivf"]["candidate_qps"] *= 0.5
    degraded["ivf"]["recall_at_64"] = 0.5
    report = compare(degraded, payload, rtol=0.25)
    assert not report.passed
    failed = {check.metric for check in report.regressions}
    assert "ivf.candidate_qps" in failed
    assert "ivf.recall_at_64" in failed
