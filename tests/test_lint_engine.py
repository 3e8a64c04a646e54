"""The lint engine, registry, report object, and reporters."""

import json

import pytest

from repro.errors import DiagnosticSeverity, LintError
from repro.lint import (
    JSON_SCHEMA_VERSION,
    REGISTRY,
    Finding,
    LintContext,
    LintEngine,
    LintOptions,
    LintReport,
    PASS_NAMES,
    Rule,
    RuleRegistry,
    render_json,
    render_text,
    run_lint,
)


def _rule(code="RPR199", name="test-rule", severity=DiagnosticSeverity.WARNING,
          pass_name="circuit"):
    return Rule(code=code, name=name, severity=severity,
                summary="a test rule", pass_name=pass_name)


class TestSeverity:
    def test_ordering(self):
        assert DiagnosticSeverity.INFO < DiagnosticSeverity.WARNING
        assert DiagnosticSeverity.WARNING < DiagnosticSeverity.ERROR
        assert DiagnosticSeverity.ERROR >= DiagnosticSeverity.WARNING
        assert max(DiagnosticSeverity) is DiagnosticSeverity.ERROR

    def test_value_is_historical_string(self):
        assert DiagnosticSeverity.WARNING.value == "warning"

    def test_comparison_with_foreign_type_fails(self):
        with pytest.raises(TypeError):
            DiagnosticSeverity.INFO < 1


class TestRule:
    def test_bad_code_rejected(self):
        with pytest.raises(LintError):
            _rule(code="X123")
        with pytest.raises(LintError):
            _rule(code="RPR12")

    def test_bad_pass_rejected(self):
        with pytest.raises(LintError):
            _rule(pass_name="nonsense")

    def test_finding_carries_rule_attributes(self):
        rule = _rule()
        f = rule.finding("boom", location="here")
        assert f.code == "RPR199"
        assert f.name == "test-rule"
        assert f.severity is DiagnosticSeverity.WARNING
        assert f.to_dict()["pass"] == "circuit"


class TestRegistry:
    def test_duplicate_code_rejected(self):
        reg = RuleRegistry()
        reg.add_rule(_rule())
        with pytest.raises(LintError):
            reg.add_rule(_rule(name="other-name"))

    def test_duplicate_name_rejected(self):
        reg = RuleRegistry()
        reg.add_rule(_rule())
        with pytest.raises(LintError):
            reg.add_rule(_rule(code="RPR198"))

    def test_unknown_code_lookup(self):
        with pytest.raises(LintError):
            RuleRegistry().rule("RPR999")

    def test_validate_codes_rejects_unknown(self):
        with pytest.raises(LintError):
            REGISTRY.validate_codes(["RPR101", "RPR999"])

    def test_default_registry_covers_all_passes(self):
        for pass_name in PASS_NAMES:
            assert REGISTRY.rules(pass_name), pass_name
            assert REGISTRY.checks(pass_name), pass_name

    def test_codes_match_pass_numbering(self):
        prefix = {"circuit": "RPR1", "technology": "RPR2",
                  "config": "RPR3", "codebase": "RPR4",
                  "units": "RPR5", "rng": "RPR6",
                  "artifacts": "RPR7"}
        for rule in REGISTRY:
            assert rule.code.startswith(prefix[rule.pass_name]), rule.code


class TestEngine:
    def test_pass_selection_from_context(self, c17):
        report = run_lint(LintContext(circuit=c17))
        assert report.passes == ("circuit",)

    def test_requesting_unavailable_pass_raises(self, c17):
        with pytest.raises(LintError):
            run_lint(LintContext(circuit=c17), passes=("technology",))

    def test_requesting_unknown_pass_raises(self, c17):
        with pytest.raises(LintError):
            run_lint(LintContext(circuit=c17), passes=("bogus",))

    def test_empty_context_runs_nothing(self):
        report = run_lint(LintContext())
        assert report.passes == ()
        assert report.findings == ()

    def test_ignore_filters_findings(self, c17):
        noisy = run_lint(LintContext(circuit=c17))
        assert any(f.code == "RPR105" for f in noisy.findings)
        quiet = run_lint(
            LintContext(
                circuit=c17, options=LintOptions(ignore=frozenset({"RPR105"}))
            )
        )
        assert not any(f.code == "RPR105" for f in quiet.findings)

    def test_unknown_ignore_code_raises(self, c17):
        ctx = LintContext(
            circuit=c17, options=LintOptions(ignore=frozenset({"RPR999"}))
        )
        with pytest.raises(LintError):
            run_lint(ctx)

    def test_findings_sorted_worst_first(self):
        reg = RuleRegistry()
        info = reg.add_rule(_rule(code="RPR191", name="r-info",
                                  severity=DiagnosticSeverity.INFO))
        err = reg.add_rule(_rule(code="RPR192", name="r-err",
                                 severity=DiagnosticSeverity.ERROR))

        @reg.check("circuit")
        def emit(ctx):
            yield info.finding("low")
            yield err.finding("high")

        report = LintEngine(reg).run(LintContext(circuit=object()))
        assert [f.code for f in report.findings] == ["RPR192", "RPR191"]


def _report(*severities, suppressed=()):
    findings = []
    for i, sev in enumerate(severities):
        rule = _rule(code=f"RPR1{90 + i}", name=f"r{i}", severity=sev)
        findings.append(rule.finding(f"msg {i}", suppressed=i in suppressed))
    return LintReport(findings=tuple(findings), passes=("circuit",))


class TestReport:
    def test_counts(self):
        report = _report(DiagnosticSeverity.ERROR, DiagnosticSeverity.WARNING,
                         DiagnosticSeverity.WARNING, DiagnosticSeverity.INFO)
        assert report.counts() == {
            "errors": 1, "warnings": 2, "info": 1, "suppressed": 0
        }
        assert report.worst() is DiagnosticSeverity.ERROR

    def test_suppressed_findings_do_not_count(self):
        report = _report(DiagnosticSeverity.ERROR, suppressed={0})
        assert report.n_errors == 0
        assert report.n_suppressed == 1
        assert report.exit_code() == 0
        assert report.worst() is None

    def test_exit_code_policy(self):
        assert _report(DiagnosticSeverity.ERROR).exit_code() == 1
        assert _report(DiagnosticSeverity.WARNING).exit_code() == 0
        assert _report(DiagnosticSeverity.WARNING).exit_code(strict=True) == 1
        assert _report(DiagnosticSeverity.INFO).exit_code(strict=True) == 0
        assert _report().exit_code(strict=True) == 0


class TestReporters:
    def test_text_report_mentions_codes_and_summary(self):
        report = _report(DiagnosticSeverity.ERROR, DiagnosticSeverity.INFO)
        text = render_text(report)
        assert "RPR190" in text and "RPR191" in text
        assert "1 error(s)" in text
        assert "(passes: circuit)" in text

    def test_text_report_truncates_repeats(self):
        rule = _rule()
        findings = tuple(rule.finding(f"msg {i}") for i in range(9))
        report = LintReport(findings=findings, passes=("circuit",))
        text = render_text(report)
        assert "... and 4 more" in text
        assert "... and 4 more" not in render_text(report, verbose=True)

    def test_json_round_trip(self):
        report = _report(DiagnosticSeverity.WARNING, suppressed={0})
        payload = json.loads(render_json(report))
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["passes"] == ["circuit"]
        assert payload["summary"]["suppressed"] == 1
        (finding,) = payload["findings"]
        assert finding["code"] == "RPR190"
        assert finding["severity"] == "warning"
        assert finding["suppressed"] is True

    def test_json_of_real_run_round_trips(self, c17):
        report = run_lint(LintContext(circuit=c17))
        payload = json.loads(render_json(report))
        assert {f["code"] for f in payload["findings"]} >= {"RPR105"}
