"""Baseline round-trip, matching semantics, and the run_lint.py CLI gate."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    BaselineEntry,
    Finding,
    TODO_JUSTIFICATION,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
RUN_LINT = REPO_ROOT / "scripts" / "run_lint.py"


def make_finding(rule="inference-dtype", path="src/repro/serving/x.py",
                 symbol="X.y", line=3):
    return Finding(path=path, line=line, rule=rule, message="msg", symbol=symbol)


class TestBaselineMatching:
    def test_partition_splits_new_and_matched(self):
        baseline = Baseline([BaselineEntry(
            rule="inference-dtype", path="src/repro/serving/x.py", symbol="X.y",
        )])
        covered = make_finding()
        novel = make_finding(symbol="X.other")
        new, matched, stale = baseline.partition([covered, novel])
        assert new == [novel]
        assert matched == [covered]
        assert stale == []

    def test_line_drift_does_not_invalidate(self):
        baseline = Baseline([BaselineEntry(
            rule="inference-dtype", path="src/repro/serving/x.py", symbol="X.y",
        )])
        new, matched, _ = baseline.partition([make_finding(line=99)])
        assert new == [] and len(matched) == 1

    def test_count_budget_not_exceeded(self):
        # One entry cannot hide a second violation at the same symbol.
        baseline = Baseline([BaselineEntry(
            rule="inference-dtype", path="src/repro/serving/x.py",
            symbol="X.y", count=1,
        )])
        new, matched, _ = baseline.partition(
            [make_finding(line=3), make_finding(line=8)]
        )
        assert len(matched) == 1 and len(new) == 1

    def test_stale_entry_reported(self):
        baseline = Baseline([BaselineEntry(
            rule="inference-dtype", path="src/repro/serving/gone.py", symbol="X.y",
        )])
        new, matched, stale = baseline.partition([])
        assert new == [] and matched == []
        assert [entry.path for entry in stale] == ["src/repro/serving/gone.py"]


class TestRenameFallback:
    """A moved file should not invalidate its baseline entries: when the
    old path is gone, an entry may match a finding with the same
    ``(rule, symbol)`` at a new path."""

    def entry(self):
        return BaselineEntry(
            rule="inference-dtype", path="src/repro/serving/old.py",
            symbol="X.y",
        )

    def test_entry_follows_the_symbol_when_old_path_is_gone(self, tmp_path):
        baseline = Baseline([self.entry()])
        moved = make_finding(path="src/repro/serving/renamed.py")
        new, matched, stale = baseline.partition([moved], root=tmp_path)
        assert new == [] and matched == [moved] and stale == []

    def test_no_fallback_while_the_old_path_still_exists(self, tmp_path):
        old = tmp_path / "src" / "repro" / "serving" / "old.py"
        old.parent.mkdir(parents=True)
        old.write_text("VALUE = 1\n")
        baseline = Baseline([self.entry()])
        moved = make_finding(path="src/repro/serving/renamed.py")
        new, matched, stale = baseline.partition([moved], root=tmp_path)
        assert new == [moved]
        assert matched == []
        assert [e.path for e in stale] == ["src/repro/serving/old.py"]

    def test_fallback_requires_matching_symbol(self, tmp_path):
        baseline = Baseline([self.entry()])
        other = make_finding(
            path="src/repro/serving/renamed.py", symbol="X.other",
        )
        new, matched, stale = baseline.partition([other], root=tmp_path)
        assert new == [other] and matched == []


class TestBaselinePersistence:
    def test_round_trip(self, tmp_path):
        baseline = Baseline([
            BaselineEntry(
                rule="inference-dtype", path="a.py", symbol="f",
                justification="stats path", count=2,
            ),
        ])
        target = tmp_path / "lint_baseline.json"
        baseline.save(target)
        loaded = Baseline.load(target)
        assert loaded.entries == baseline.entries

    def test_missing_file_is_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path / "nope.json")) == 0

    def test_unsupported_version_rejected(self, tmp_path):
        target = tmp_path / "lint_baseline.json"
        target.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError, match="version"):
            Baseline.load(target)

    def test_from_findings_preserves_justifications(self):
        previous = Baseline([BaselineEntry(
            rule="inference-dtype", path="a.py", symbol="f",
            justification="deliberate float64",
        )])
        updated = Baseline.from_findings(
            [make_finding(path="a.py", symbol="f"),
             make_finding(path="b.py", symbol="g")],
            previous=previous,
        )
        by_path = {entry.path: entry for entry in updated}
        assert by_path["a.py"].justification == "deliberate float64"
        assert by_path["b.py"].justification == TODO_JUSTIFICATION

    def test_from_findings_drops_stale_entries(self):
        previous = Baseline([BaselineEntry(
            rule="inference-dtype", path="gone.py", symbol="f",
        )])
        updated = Baseline.from_findings([], previous=previous)
        assert len(updated) == 0


class TestCli:
    """scripts/run_lint.py drives the library; exit code is the verdict."""

    def run(self, *args, cwd=None):
        return subprocess.run(
            [sys.executable, str(RUN_LINT), *args],
            capture_output=True, text=True, cwd=cwd or REPO_ROOT,
        )

    def test_list_rules(self):
        proc = self.run("--list-rules")
        assert proc.returncode == 0
        for rule in ("thread-local-state", "lock-discipline",
                     "probe-mode-discipline", "inference-dtype",
                     "future-hygiene", "pytest-marker-declared"):
            assert rule in proc.stdout

    def test_dirty_file_exits_nonzero_with_diagnostic(self, tmp_path):
        dirty = tmp_path / "src" / "repro" / "serving" / "dirty.py"
        dirty.parent.mkdir(parents=True)
        dirty.write_text(
            "import numpy as np\n\n"
            "def hot(x):\n"
            "    return np.asarray(x, dtype=np.float64)\n"
        )
        proc = self.run(str(dirty), "--no-baseline")
        assert proc.returncode == 1
        # file:line: rule: message diagnostic format
        assert f"{dirty}:4: inference-dtype:" in proc.stdout.replace(
            str(dirty.resolve()), str(dirty)
        ) or ":4: inference-dtype:" in proc.stdout

    def test_clean_file_exits_zero(self, tmp_path):
        clean = tmp_path / "src" / "repro" / "serving" / "clean.py"
        clean.parent.mkdir(parents=True)
        clean.write_text("VALUE = 1\n")
        proc = self.run(str(clean), "--no-baseline")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_json_format(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        proc = self.run(str(clean), "--no-baseline", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["summary"]["ok"] is True

    def test_baseline_update_then_gate_passes(self, tmp_path):
        dirty = tmp_path / "src" / "repro" / "serving" / "dirty.py"
        dirty.parent.mkdir(parents=True)
        dirty.write_text(
            "import numpy as np\n"
            "def hot(x):\n"
            "    return np.asarray(x, dtype=np.float64)\n"
        )
        baseline = tmp_path / "lint_baseline.json"
        update = self.run(str(dirty), "--baseline", str(baseline),
                          "--baseline-update")
        assert update.returncode == 0
        payload = json.loads(baseline.read_text())
        assert payload["entries"][0]["justification"] == TODO_JUSTIFICATION

        gated = self.run(str(dirty), "--baseline", str(baseline))
        assert gated.returncode == 0, gated.stdout + gated.stderr
