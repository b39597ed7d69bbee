"""Figure 4: meta-learning separates normal from corrupted synthetic data."""

from .conftest import run_once
from repro.eval import format_table
from repro.eval.experiments import FIGURE4_SEED


def test_figure4_noise_selection(benchmark, suite):
    result = run_once(benchmark, suite.run_figure4_selection, domain="yugioh", noise_fraction=0.5)
    print()
    print(format_table(
        [result], title=f"Figure 4 — selection ratio by data source (shuffle seed {FIGURE4_SEED})"
    ))
    # The paper reports ~50% of normal data selected vs ~20% of corrupted
    # data; at this scale we only require the ordering to hold.
    assert result["bad_selected_ratio"] <= result["normal_selected_ratio"] + 1e-9
