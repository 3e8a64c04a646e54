"""SARIF rendering, baseline files, and their CLI wiring."""

import json
import textwrap

import pytest

from repro.cli import main
from repro.errors import LintError
from repro.lint import (
    BASELINE_VERSION,
    LintContext,
    LintReport,
    apply_baseline,
    dead_entries,
    fingerprint,
    load_baseline,
    prune_baseline,
    render_sarif,
    run_lint,
    write_baseline,
)
from repro.lint.rng_rules import RULE_SET_ORDER
from repro.lint.units_rules import RULE_UNIT_MIXING

BAD_BENCH = "INPUT(a)\nINPUT(unused)\nOUTPUT(y)\ny = NAND(a, a)\n"


def units_fixture_report(tmp_path):
    """A report with one active RPR501 and one suppressed RPR501."""
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "bad.py").write_text(textwrap.dedent("""
        def total(delay_ps, delay_ns):
            return delay_ps + delay_ns

        def compare(delay_ps, leakage_nw):
            return delay_ps > leakage_nw  # lint: ignore[RPR501] fixture
    """))
    return run_lint(LintContext(source_root=root), passes=("units",))


# -- SARIF --------------------------------------------------------------------


class TestSarif:
    def test_document_shape(self, tmp_path):
        report = units_fixture_report(tmp_path)
        doc = json.loads(render_sarif(report))
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
        [run] = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        [rule] = driver["rules"]
        assert rule["id"] == "RPR501"
        assert rule["name"] == "unit-mixing"
        assert rule["shortDescription"]["text"]
        assert rule["defaultConfiguration"]["level"] == "error"
        assert len(run["results"]) == 2

    def test_result_physical_location(self, tmp_path):
        doc = json.loads(render_sarif(units_fixture_report(tmp_path)))
        result = doc["runs"][0]["results"][0]
        assert result["ruleId"] == "RPR501"
        assert result["ruleIndex"] == 0
        assert result["level"] == "error"
        [location] = result["locations"]
        physical = location["physicalLocation"]
        assert physical["artifactLocation"]["uri"] == "pkg/bad.py"
        assert physical["region"]["startLine"] == 3

    def test_suppressed_finding_carries_in_source_suppression(self, tmp_path):
        doc = json.loads(render_sarif(units_fixture_report(tmp_path)))
        suppressed = [
            r for r in doc["runs"][0]["results"] if "suppressions" in r
        ]
        [result] = suppressed
        [suppression] = result["suppressions"]
        assert suppression["kind"] == "inSource"
        assert suppression["justification"] == "fixture"

    def test_non_file_location_lands_in_message(self):
        finding = RULE_UNIT_MIXING.finding("mixed units", location="net n42")
        report = LintReport(findings=(finding,), passes=("units",))
        doc = json.loads(render_sarif(report))
        [result] = doc["runs"][0]["results"]
        assert "locations" not in result
        assert result["message"]["text"] == "mixed units (at net n42)"

    def test_severity_level_mapping(self):
        from repro.errors import DiagnosticSeverity
        from repro.lint.reporters import _SARIF_LEVEL

        assert _SARIF_LEVEL[DiagnosticSeverity.ERROR] == "error"
        assert _SARIF_LEVEL[DiagnosticSeverity.WARNING] == "warning"
        assert _SARIF_LEVEL[DiagnosticSeverity.INFO] == "note"

    def test_cli_lint_self_sarif_parses(self, capsys):
        assert main(["lint", "--self", "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-lint"


# -- baseline -----------------------------------------------------------------


class TestFingerprint:
    def test_ignores_line_numbers(self):
        a = RULE_SET_ORDER.finding("msg", location="pkg/a.py:10")
        b = RULE_SET_ORDER.finding("msg", location="pkg/a.py:99")
        assert fingerprint(a) == fingerprint(b)

    def test_distinguishes_message_file_and_code(self):
        base = RULE_SET_ORDER.finding("msg", location="pkg/a.py:10")
        assert fingerprint(
            RULE_SET_ORDER.finding("other", location="pkg/a.py:10")
        ) != fingerprint(base)
        assert fingerprint(
            RULE_SET_ORDER.finding("msg", location="pkg/b.py:10")
        ) != fingerprint(base)
        assert fingerprint(
            RULE_UNIT_MIXING.finding("msg", location="pkg/a.py:10")
        ) != fingerprint(base)

    def test_non_file_location_kept_verbatim(self):
        finding = RULE_UNIT_MIXING.finding("msg", location="net n42")
        assert fingerprint(finding) == "RPR501::net n42::msg"


class TestBaselineRoundTrip:
    def test_write_then_apply_silences_exactly_the_frozen_findings(
        self, tmp_path
    ):
        report = units_fixture_report(tmp_path)
        assert report.exit_code() == 1
        path = tmp_path / "baseline.json"
        count = write_baseline(report, path)
        assert count == 1  # the suppressed finding is not frozen
        rebaselined = apply_baseline(report, load_baseline(path))
        assert rebaselined.exit_code(strict=True) == 0
        frozen = [
            f for f in rebaselined.findings
            if f.justification == "frozen in baseline"
        ]
        assert len(frozen) == 1

    def test_new_finding_still_fails(self, tmp_path):
        report = units_fixture_report(tmp_path)
        write_baseline(report, tmp_path / "baseline.json")
        entries = load_baseline(tmp_path / "baseline.json")
        # Same fixture plus one new violation in another file.
        root = tmp_path / "pkg"
        (root / "worse.py").write_text(
            "def f(delay_ps, cap_pf):\n    return delay_ps - cap_pf\n"
        )
        fresh = run_lint(LintContext(source_root=root), passes=("units",))
        rebaselined = apply_baseline(fresh, entries)
        assert rebaselined.exit_code() == 1
        active = rebaselined.active()
        assert len(active) == 1
        assert active[0].location.startswith("pkg/worse.py")

    def test_file_format(self, tmp_path):
        report = units_fixture_report(tmp_path)
        path = tmp_path / "baseline.json"
        write_baseline(report, path)
        payload = json.loads(path.read_text())
        assert payload["version"] == BASELINE_VERSION
        [entry] = payload["entries"]
        assert entry.startswith("RPR501::pkg/bad.py::")
        assert ":3" not in entry  # line-free


class TestBaselineErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(LintError, match="does not exist"):
            load_baseline(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(LintError, match="not valid JSON"):
            load_baseline(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(LintError, match="version"):
            load_baseline(path)

    def test_non_string_entries(self, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"version": 1, "entries": [1, "ok"]}))
        with pytest.raises(LintError, match="must be strings"):
            load_baseline(path)


class TestDeadEntries:
    def test_live_baseline_has_no_dead_entries(self, tmp_path):
        report = units_fixture_report(tmp_path)
        path = tmp_path / "baseline.json"
        write_baseline(report, path)
        assert dead_entries(load_baseline(path), report) == []

    def test_fixed_finding_reported_dead(self, tmp_path):
        report = units_fixture_report(tmp_path)
        path = tmp_path / "baseline.json"
        write_baseline(report, path)
        # "fix" the violation: re-lint a clean tree
        root = tmp_path / "pkg"
        (root / "bad.py").write_text("def total(x):\n    return x\n")
        clean = run_lint(LintContext(source_root=root), passes=("units",))
        [(entry, reason)] = dead_entries(load_baseline(path), clean)
        assert entry.startswith("RPR501::")
        assert reason == "no current finding matches"

    def test_unknown_rule_reported(self, tmp_path):
        report = units_fixture_report(tmp_path)
        dead = dead_entries(
            frozenset(["RPR999::pkg/bad.py::gone"]), report
        )
        [(entry, reason)] = dead
        assert "RPR999 is not registered" in reason

    def test_malformed_entry_reported(self, tmp_path):
        report = units_fixture_report(tmp_path)
        [(_, reason)] = dead_entries(frozenset(["not-a-fingerprint"]), report)
        assert "malformed" in reason

    def test_vanished_file_reported(self, tmp_path):
        report = units_fixture_report(tmp_path)
        dead = dead_entries(
            frozenset(["RPR501::pkg/deleted.py::old message"]),
            report,
            source_root=tmp_path / "pkg",
        )
        [(_, reason)] = dead
        assert "pkg/deleted.py no longer exists" in reason

    def test_prune_rewrites_only_when_dirty(self, tmp_path):
        report = units_fixture_report(tmp_path)
        path = tmp_path / "baseline.json"
        write_baseline(report, path)
        before = path.read_text()
        kept, removed = prune_baseline(path, report)
        assert (kept, removed) == (1, [])
        assert path.read_text() == before  # untouched when clean
        # inject a dead entry, prune must drop exactly it
        payload = json.loads(before)
        payload["entries"].append("RPR501::pkg/ghost.py::never existed")
        path.write_text(json.dumps(payload))
        kept, removed = prune_baseline(path, report)
        assert kept == 1
        [(entry, _)] = removed
        assert "ghost" in entry
        assert load_baseline(path) == frozenset(json.loads(before)["entries"])


# -- CLI wiring ---------------------------------------------------------------


class TestCli:
    def test_write_then_consume_baseline(self, tmp_path, capsys):
        bench = tmp_path / "bad.bench"
        bench.write_text(BAD_BENCH)
        baseline = tmp_path / "baseline.json"
        # Warnings fail under --strict ...
        assert main(["lint", str(bench), "--strict"]) == 1
        capsys.readouterr()
        # ... until frozen into a baseline ...
        assert main(
            ["lint", str(bench), "--write-baseline", "--baseline", str(baseline)]
        ) == 0
        assert "wrote baseline" in capsys.readouterr().out
        # ... after which the same run passes strict.
        assert main(
            ["lint", str(bench), "--baseline", str(baseline), "--strict"]
        ) == 0
        assert "frozen in baseline" in capsys.readouterr().out

    def test_missing_baseline_file_fails(self, tmp_path, capsys):
        assert main(
            ["lint", "c17", "--baseline", str(tmp_path / "nope.json")]
        ) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_paths_narrows_self_lint_reporting(self, capsys):
        import repro
        from pathlib import Path

        circuit_dir = Path(repro.__file__).parent / "circuit"
        assert main([
            "lint", "--self", "--format", "json",
            "--paths", str(circuit_dir),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        for finding in payload["findings"]:
            assert finding["location"].startswith("repro/circuit/")

    def test_baseline_verify_and_prune_subcommands(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main([
            "lint", "--self", "--write-baseline", "--baseline", str(baseline),
        ]) == 0
        capsys.readouterr()
        assert main([
            "lint", "baseline", "verify", "--baseline", str(baseline),
        ]) == 0
        assert "still match" in capsys.readouterr().out
        # a dead entry fails verify, prune drops it, verify passes again
        payload = json.loads(baseline.read_text())
        payload["entries"].append("RPR402::repro/ghost.py::never existed")
        baseline.write_text(json.dumps(payload))
        assert main([
            "lint", "baseline", "verify", "--baseline", str(baseline),
        ]) == 1
        out = capsys.readouterr().out
        assert "ghost" in out and "no longer exists" in out
        assert main([
            "lint", "baseline", "prune", "--baseline", str(baseline),
        ]) == 0
        assert "pruned 1" in capsys.readouterr().out
        assert main([
            "lint", "baseline", "verify", "--baseline", str(baseline),
        ]) == 0

    def test_jobs_with_circuit_rejected(self, capsys):
        assert main(["lint", "c17", "--jobs", "2"]) == 1
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_output_matches_serial(self, capsys):
        assert main(["lint", "--self", "--format", "json",
                     "--passes", "codebase"]) == 0
        serial = capsys.readouterr().out
        assert json.loads(serial)["findings"]
        assert main(["lint", "--self", "--format", "json",
                     "--passes", "codebase", "--jobs", "3"]) == 0
        assert capsys.readouterr().out == serial
