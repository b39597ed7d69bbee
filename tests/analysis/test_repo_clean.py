"""The shipped tree is lint-clean, and seeding any of the six historical
bug patterns back into the real sources makes the gate fail.

The seeding tests are the acceptance criterion for the whole framework:
each takes an actual repo file, re-introduces the exact pattern a past PR
shipped (and later fixed), and asserts the linter reports it with a
``file:line: rule:`` diagnostic.
"""

import subprocess
import sys
from pathlib import Path

from repro.analysis import (
    FileContext,
    LintConfig,
    iter_python_files,
    lint_source,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
RUN_LINT = REPO_ROOT / "scripts" / "run_lint.py"


def read(rel):
    return (REPO_ROOT / rel).read_text(encoding="utf-8")


class TestShippedTreeIsClean:
    def test_src_clean(self):
        result = run_lint([SRC], config=LintConfig(project_root=REPO_ROOT))
        assert result.ok, "\n".join(f.describe() for f in result.findings)

    def test_every_suppression_carries_its_reason(self):
        # The inline comment is the only way to excuse a line, so the
        # reason has to sit with it: a comment line directly above.
        suppressions = 0
        for path in iter_python_files([SRC]):
            source = path.read_text(encoding="utf-8")
            lines = source.splitlines()
            for number in FileContext(source, str(path)).suppressions:
                suppressions += 1
                above = lines[number - 2].strip() if number > 1 else ""
                assert above.startswith("#") and len(above) > 2, (
                    f"{path}:{number}: `repro: disable` without a reason "
                    f"in the comment line above it"
                )
        proc = subprocess.run(
            [sys.executable, str(RUN_LINT), "src"],
            capture_output=True, text=True, cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert suppressions == 0
        assert proc.stdout.rstrip().endswith("-> clean")


class TestSeededHistoricalBugs:
    """Re-introduce each fixed bug pattern; the matching rule must fire."""

    def seeded(self, source, path, rule):
        return lint_source(
            source, path,
            config=LintConfig(enabled=[rule], project_root=REPO_ROOT),
        )

    def test_pr6_global_grad_flag(self):
        # PR 6 shipped the grad flag as a process-global mutated via
        # `global` from replica threads.  Revert tensor.py's thread-local
        # state to that shape.
        source = read("src/repro/nn/tensor.py")
        assert "threading.local" in source
        seeded = source.replace(
            "import threading",
            "import threading\n\n_grad_enabled = True\n\n"
            "def _set_grad_enabled(value):\n"
            "    global _grad_enabled\n"
            "    _grad_enabled = value\n",
            1,
        )
        findings = self.seeded(
            seeded, "src/repro/nn/tensor.py", "thread-local-state",
        )
        assert any(f.symbol == "_grad_enabled" for f in findings)

    def test_pr5_stats_mutation_outside_lock(self):
        # PR 5's PipelineStats mutated counters outside _lock.  Move the
        # guarded reset body out of its `with self._lock:` block.
        source = read("src/repro/serving/pipeline.py")
        target = "    def reset(self) -> None:\n        with self._lock:\n"
        assert target in source
        seeded = source.replace(
            target,
            "    def reset(self) -> None:\n        if True:\n",
            1,
        )
        findings = self.seeded(
            seeded, "src/repro/serving/pipeline.py", "lock-discipline",
        )
        assert any(f.symbol == "PipelineStats.reset" for f in findings)

    def test_pr4_probe_without_restore(self):
        # PR 4's reweighter called eval() for the probe and only switched
        # back at the end of the happy path.  Strip _probe_mode's
        # try/finally down to that shape.
        source = read("src/repro/meta/reweight.py")
        assert "finally:" in source
        seeded = source.replace(
            "        try:\n            yield\n        finally:\n"
            "            self.model.train(was_training)",
            "        yield\n        self.model.train(was_training)",
            1,
        )
        assert seeded != source, "reweight.py _probe_mode shape changed"
        findings = self.seeded(
            seeded, "src/repro/meta/reweight.py", "probe-mode-discipline",
        )
        assert any("finally" in f.message for f in findings)

    def test_unguarded_future_settle(self):
        # Strip the InvalidStateError guard from LinkingService._settle:
        # a racing abort() then raises on the worker thread.
        source = read("src/repro/serving/service.py")
        target = (
            "        try:\n"
            "            if error is not None:\n"
            "                future.set_exception(error)\n"
            "            else:\n"
            "                future.set_result(result)\n"
            "        except InvalidStateError:\n"
            "            pass\n"
        )
        assert target in source
        seeded = source.replace(
            target,
            "        if error is not None:\n"
            "            future.set_exception(error)\n"
            "        else:\n"
            "            future.set_result(result)\n",
            1,
        )
        findings = self.seeded(
            seeded, "src/repro/serving/service.py", "future-hygiene",
        )
        assert any("InvalidStateError" in f.message for f in findings)

    def test_pr8_unbounded_wait_two_hops_under_lock(self):
        # PR 8's scheduler deadlock, buried two private helpers under the
        # lock _run holds: _run -> _drain_quiet -> _park_for_work, which
        # waits with no timeout.  Inside repro.serving a timeout-less wait
        # is flagged wherever it sits, so no call graph is needed to find it.
        source = read("src/repro/serving/service.py")
        helpers = (
            "    def _drain_quiet(self) -> None:\n"
            "        self._park_for_work()\n"
            "\n"
            "    def _park_for_work(self) -> None:\n"
            "        self._work_ready.wait()\n"
            "\n"
            "    def _run(self) -> None:\n"
        )
        seeded = source.replace("    def _run(self) -> None:\n", helpers, 1)
        seeded = seeded.replace(
            "                    self._work_ready.wait("
            "timeout=SCHEDULER_HEARTBEAT_SECONDS)",
            "                    self._drain_quiet()",
            1,
        )
        assert seeded.count("_drain_quiet") == 2, "service.py _run shape changed"
        findings = self.seeded(
            seeded, "src/repro/serving/service.py", "bounded-wait",
        )
        assert [f.symbol for f in findings] == ["self._work_ready.wait"]
        park = seeded.splitlines().index("    def _park_for_work(self) -> None:")
        assert findings[0].line == park + 2  # the wait, inside _park_for_work


class TestGateEndToEnd:
    def test_cli_gate_fails_on_seeded_bug_with_diagnostic(self, tmp_path):
        # Full-loop demo: run_lint.py over a seeded copy of a real file
        # exits non-zero and prints a file:line:rule diagnostic.
        source = read("src/repro/serving/pipeline.py")
        target = "    def reset(self) -> None:\n        with self._lock:\n"
        seeded_path = tmp_path / "src" / "repro" / "serving" / "pipeline.py"
        seeded_path.parent.mkdir(parents=True)
        seeded_path.write_text(source.replace(
            target, "    def reset(self) -> None:\n        if True:\n", 1,
        ))
        proc = subprocess.run(
            [sys.executable, str(RUN_LINT), str(seeded_path)],
            capture_output=True, text=True, cwd=REPO_ROOT,
        )
        assert proc.returncode == 1
        assert ": lock-discipline: " in proc.stdout
        # Diagnostic line format: path:line: rule: message
        diagnostic = next(
            line for line in proc.stdout.splitlines()
            if ": lock-discipline: " in line
        )
        location = diagnostic.split(": lock-discipline: ")[0]
        assert location.rsplit(":", 1)[1].isdigit()

    def test_cli_gate_clean_on_shipped_tree(self):
        proc = subprocess.run(
            [sys.executable, str(RUN_LINT), "src"],
            capture_output=True, text=True, cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
