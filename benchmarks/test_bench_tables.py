"""Every table and figure of the paper: one test per entry of ``tables.ENTRIES``."""

import pytest

from repro.eval import format_table

from .conftest import run_once
from .tables import ENTRIES


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry.key for entry in ENTRIES])
def test_paper_result(benchmark, suite, entry):
    rows = run_once(benchmark, entry.run, suite)
    print()
    print(format_table(rows, title=entry.title))
    entry.check(rows, suite)
