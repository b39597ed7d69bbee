"""Table V: few-shot entity linking on Forgotten Realms and Lego."""

from .conftest import run_once
from repro.eval import format_table
from repro.eval.experiments import TABLE5_6_SEED

METHODS = [
    "name_matching",
    "blink_seed",
    "blink_syn",
    "blink_syn_seed",
    "dl4el_syn_seed",
    "metablink_syn_seed",
    "metablink_synstar_seed",
]


def test_table5_forgotten_realms_and_lego(benchmark, suite):
    rows = run_once(benchmark, suite.run_table5_6, domains=["lego"], methods=METHODS)
    print()
    print(format_table(
        rows,
        title="Table V — few-shot linking (Lego; Forgotten Realms via --full sweep); "
              f"every method on shuffle seed {TABLE5_6_SEED}",
    ))
    assert len(rows) == len(METHODS)
    methods = [row["method"] for row in rows]
    assert methods == METHODS
    best_meta = max(row["unnormalized_accuracy"] for row in rows if row["method"].startswith("metablink"))
    seed_only = next(row["unnormalized_accuracy"] for row in rows if row["method"] == "blink_seed")
    syn_only = next(row["unnormalized_accuracy"] for row in rows if row["method"] == "blink_syn")
    # The paper's qualitative claim: combining synthetic + seed data via
    # meta-learning beats using either source alone.
    assert best_meta >= min(seed_only, syn_only)
