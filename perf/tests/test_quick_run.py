"""A 2-s-per-workload run of everything: schema, correctness, span structure."""

import json
import shutil
import subprocess
import sys

import pytest

from perf import spec
from perf.run import PERF_DIR, ROOT
from perf.runners import RUNNERS, Scale
from perf.trace import Tracer

SEED = 7


@pytest.fixture(scope="module")
def runs():
    """``{workload: (untraced result, traced result, tracer)}`` at quick scale."""
    results = {}
    for name, runner in RUNNERS.items():
        tracer = Tracer()
        try:
            results[name] = (runner(SEED, Scale.quick()), runner(SEED, Scale.quick(), tracer), tracer)
        finally:
            tracer.restore()
    return results


def test_every_run_reports_every_metric_and_nothing_fails(runs):
    assert list(runs) == [workload.name for workload in spec.WORKLOADS]
    for name, (untraced, traced, _) in runs.items():
        assert set(untraced.end_to_end) == {m.name for m in spec.END_TO_END}, name
        assert set(traced.layer) == {m.name for m in spec.PER_LAYER}, name
        assert untraced.layer == {}
        for result in (untraced, traced):
            assert result.failed == 0 and result.correct, (name, result.problems)
            assert result.attempted >= 1
        assert all(value > 0 for value in untraced.end_to_end.values()), (name, untraced.end_to_end)
        assert untraced.fingerprint == traced.fingerprint


def test_spans_nest_and_self_times_are_not_negative(runs):
    for name, (_, _, tracer) in runs.items():
        assert tracer.spans, name
        by_id = {span.span_id: span for span in tracer.spans}
        for span in tracer.spans:
            assert span.end >= span.start
            if span.parent is not None:
                parent = by_id[span.parent]
                assert parent.start <= span.start and span.end <= parent.end, (name, span.name)
        assert min(tracer.self_times().values()) >= -1e-9, name


def test_stage_shares_add_up_where_the_pipeline_ran(runs):
    for name in ("serve_steady", "serve_saturated", "link_large_kb", "link_under_churn"):
        layer = runs[name][1].layer
        shares = sum(layer[f"pipeline.{stage}_share"]
                     for stage in ("tokenize", "embed", "retrieve", "rerank", "assemble"))
        assert shares == pytest.approx(1.0, abs=0.05), name


def test_the_workloads_stress_the_layers_they_claim(runs):
    saturated = runs["serve_saturated"][1].layer
    large = runs["link_large_kb"][1].layer
    assert saturated["pipeline.rerank_share"] >= 0.6
    assert saturated["pipeline.retrieve_share"] <= 0.15
    assert large["pipeline.rerank_share"] == 0.0 and large["crossencoder.pairs"] == 0.0
    assert large["pipeline.retrieve_share"] >= 0.6
    steady = runs["serve_steady"][1].layer
    assert steady["cluster.shed"] == 0 and steady["generator.late_p99_ms"] < 50.0
    churn = runs["link_under_churn"][1].layer
    assert churn["index.mutations_applied"] > 0 and churn["index.add_ms"] > 0
    recipe = runs["fewshot_train"][1].layer
    accounted = recipe["reweight.share"] + (
        recipe["engine.weighted_loss_s"] + recipe["engine.backward_s"] + recipe["engine.update_s"]
    ) / recipe["engine.fit_s"]
    assert 0.8 <= accounted <= 1.0 + 1e-6
    assert recipe["cluster.sent"] == 0 and recipe["pipeline.rerank_share"] == 0


def test_the_oracle_agrees_with_the_exact_backend(runs):
    assert runs["link_large_kb"][0].end_to_end["quality"] == 1.0
    assert 0.5 < runs["link_under_churn"][0].end_to_end["quality"] <= 1.0


def test_command_line_contract(tmp_path):
    command = [sys.executable, "perf/run.py", "--workload", "fewshot_train", "--seed", "3",
               "--seconds", "1", "--trace", "0", "--quick"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m.name: m.unit for m in spec.END_TO_END
    }

    # Without the program's sources there is nothing to measure: no result, not 0.
    bare = tmp_path / "bare"
    shutil.copytree(PERF_DIR, bare / "perf", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    completed = subprocess.run(command, cwd=bare, capture_output=True, text=True, timeout=170)
    assert completed.returncode != 0
    assert "{" not in completed.stdout
