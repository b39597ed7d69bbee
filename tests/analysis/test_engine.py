"""Engine-level behaviour: registry, config, suppressions, reporters,
syntax-error handling and file discovery."""

import pytest

from repro.analysis import (
    Finding,
    LintConfig,
    LintResult,
    SYNTAX_ERROR_RULE,
    iter_python_files,
    lint_source,
    registered_rules,
    render_text,
    run_lint,
    summarize,
)

EXPECTED_RULES = {
    "thread-local-state",
    "lock-discipline",
    "probe-mode-discipline",
    "future-hygiene",
    "bounded-wait",
    "unused-suppression",
}


class TestRegistry:
    def test_all_domain_rules_registered(self):
        assert set(registered_rules()) == EXPECTED_RULES

    def test_rules_have_descriptions_and_paths(self):
        for name, cls in registered_rules().items():
            assert cls.description, name
            assert cls.paths, name

    def test_unknown_enabled_rule_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            LintConfig(enabled=["no-such-rule"]).build_rules()


class TestSuppressions:
    def test_suppression_only_applies_to_named_rule(self):
        source = "done.wait()  # repro: disable=lock-discipline\n"
        findings = lint_source(
            source, "src/repro/serving/hot.py",
            config=LintConfig(enabled=["bounded-wait"]),
        )
        assert len(findings) == 1

    def test_disable_all(self):
        source = "done.wait()  # repro: disable=all\n"
        findings = lint_source(
            source, "src/repro/serving/hot.py",
            config=LintConfig(enabled=["bounded-wait"]),
        )
        assert findings == []

    def test_suppression_inside_string_literal_ignored(self):
        source = (
            'note = "repro: disable=bounded-wait"\n'
            "done.wait()\n"
        )
        findings = lint_source(
            source, "src/repro/serving/hot.py",
            config=LintConfig(enabled=["bounded-wait"]),
        )
        assert len(findings) == 1

    def test_multiple_rules_one_comment(self):
        source = "done.wait()  # repro: disable=bounded-wait, lock-discipline\n"
        findings = lint_source(
            source, "src/repro/serving/hot.py",
            config=LintConfig(enabled=["bounded-wait"]),
        )
        assert findings == []


class TestFindings:
    def test_describe_format(self):
        finding = Finding(
            path="src/repro/serving/x.py", line=7, rule="lock-discipline",
            message="bad", symbol="X.y",
        )
        assert finding.describe() == "src/repro/serving/x.py:7: lock-discipline: bad"


class TestRunLint:
    def test_syntax_error_becomes_finding(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "serving" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        result = run_lint(
            [tmp_path / "src"], config=LintConfig(project_root=tmp_path),
        )
        assert [f.rule for f in result.findings] == [SYNTAX_ERROR_RULE]
        assert not result.ok

    def test_clean_tree_reports_ok_and_timing(self, tmp_path):
        good = tmp_path / "src" / "repro" / "serving" / "good.py"
        good.parent.mkdir(parents=True)
        good.write_text("VALUE = 1\n")
        result = run_lint(
            [tmp_path / "src"], config=LintConfig(project_root=tmp_path),
        )
        assert result.ok
        assert result.files == 1
        assert result.elapsed_seconds > 0
        assert result.files_per_second > 0

    def test_iter_python_files_skips_pycache(self, tmp_path):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__" / "mod.cpython-311.py").write_text("")
        files = iter_python_files([tmp_path])
        assert [f.name for f in files] == ["mod.py"]


class TestUnusedSuppression:
    def write(self, tmp_path, source):
        target = tmp_path / "src" / "repro" / "serving" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(source)
        return target

    def test_dead_suppression_is_flagged(self, tmp_path):
        self.write(tmp_path, "VALUE = 1  # repro: disable=bounded-wait\n")
        result = run_lint(
            [tmp_path / "src"], config=LintConfig(project_root=tmp_path),
        )
        assert [f.rule for f in result.findings] == ["unused-suppression"]
        assert result.findings[0].symbol == "disable=bounded-wait"
        assert result.findings[0].line == 1

    def test_used_suppression_is_not_flagged(self, tmp_path):
        self.write(
            tmp_path,
            "done.wait()  # repro: disable=bounded-wait\n",
        )
        result = run_lint(
            [tmp_path / "src"], config=LintConfig(project_root=tmp_path),
        )
        assert result.findings == []
        assert result.suppressed == 1

    def test_mid_comment_mention_is_not_a_suppression(self, tmp_path):
        # The marker must start the comment; prose that merely mentions it
        # neither suppresses nor counts as a dead suppression.
        self.write(
            tmp_path,
            "done.wait()  # see repro: disable=bounded-wait\n",
        )
        result = run_lint(
            [tmp_path / "src"], config=LintConfig(project_root=tmp_path),
        )
        assert [f.rule for f in result.findings] == ["bounded-wait"]


class TestReporters:
    def _result(self):
        return LintResult(
            findings=[Finding(
                path="src/repro/serving/x.py", line=3,
                rule="lock-discipline", message="oops", symbol="X.y",
            )],
            files=10, elapsed_seconds=0.5, suppressed=2,
        )

    def test_render_text_contains_diagnostic_and_summary(self):
        text = render_text(self._result())
        assert "src/repro/serving/x.py:3: lock-discipline: oops" in text
        assert "1 finding(s)" in text
        assert "2 suppressed" in text

    def test_summarize_clean(self):
        clean = LintResult(findings=[], files=3, elapsed_seconds=0.1)
        assert "clean" in summarize(clean)
