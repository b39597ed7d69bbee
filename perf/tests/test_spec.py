"""BENCHMARK.json is the serialisation of perf.spec and stays inside the contract."""

import json
import re

from perf import spec
from perf.run import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_names_units_and_counts():
    document = spec.benchmark_json()
    assert set(document) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in document[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(row["unit"]) for key in ("end_to_end", "per_layer") for row in document[key])
    assert all(row["better"] in ("lower", "higher")
               for key in ("end_to_end", "per_layer") for row in document[key])
    assert len(document["workloads"]) == 5
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert 1 <= document["run_seconds"] <= 60


def test_bounds_and_reasons():
    document = spec.benchmark_json()
    setup = [row for row in document["end_to_end"] if row["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": setup[0]["bound"]}]
    assert all(0 < row["bound"] <= 0.25 for row in document["end_to_end"])
    assert setup[0]["bound"] == max(row["bound"] for row in document["end_to_end"])
    for workload in document["workloads"]:
        assert "\n" not in workload["why"] and 0 < len(workload["why"]) <= 200
    # Every layer metric says which end-to-end number it should move.
    assert all(metric.layer and metric.moves for metric in spec.PER_LAYER)
