"""Verdicts of perf.compare."""

from perf.compare import verdict


def _row(median, spread=0.02):
    half = median * spread / 2
    return {"median": median, "q1": median - half, "q3": median + half, "spread": spread}


def test_verdicts():
    assert verdict(_row(100), _row(101), "lower", 0.10) == "no worse"
    assert verdict(_row(100), _row(115), "lower", 0.10) == "regressed"
    assert verdict(_row(100), _row(90), "lower", 0.10) == "improved"
    assert verdict(_row(100), _row(90), "higher", 0.05) == "regressed"
    assert verdict(_row(100), _row(120), "higher", 0.10) == "improved"
    assert verdict(_row(100, spread=0.3), _row(50), "lower", 0.10) == "unresolved"
