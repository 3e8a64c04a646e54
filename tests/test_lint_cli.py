"""Lint CLI surfaces: the rules listing, its docs mirror, and
suppression visibility."""

import json
import re
import textwrap
from pathlib import Path

from repro.cli import main
from repro.lint import (
    PASS_NAMES,
    REGISTRY,
    LintContext,
    render_text,
    run_lint,
)

DOCS = Path(__file__).parent.parent / "docs" / "static_analysis.md"


class TestRulesSubcommand:
    def test_text_listing_groups_by_pass(self, capsys):
        assert main(["lint", "rules"]) == 0
        out = capsys.readouterr().out
        for pass_name in PASS_NAMES:
            assert f"[{pass_name}]" in out
        assert "RPR601" in out and "rng-taint-path" in out
        assert f"{len(REGISTRY.codes())} rule(s) in {len(PASS_NAMES)} pass(es)" in out

    def test_json_listing_matches_registry(self, capsys):
        assert main(["lint", "rules", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(r["code"] for r in payload) == sorted(REGISTRY.codes())
        by_code = {r["code"]: r for r in payload}
        for rule in REGISTRY:
            entry = by_code[rule.code]
            assert entry["name"] == rule.name
            assert entry["severity"] == rule.severity.value
            assert entry["pass"] == rule.pass_name
            assert entry["summary"] == rule.summary

    def test_sarif_format_rejected(self, capsys):
        assert main(["lint", "rules", "--format", "sarif"]) == 1
        assert "text or json" in capsys.readouterr().err

    def test_docs_table_lists_every_rule(self):
        # The docs rule tables are the user-facing registry mirror; a new
        # rule is not done until its row exists with matching severity,
        # and a retired rule is not gone until its row is.
        docs = DOCS.read_text(encoding="utf-8")
        for rule in REGISTRY:
            row = f"| {rule.code} | `{rule.name}` | {rule.severity.value} |"
            assert row in docs, f"docs/static_analysis.md misses {row}"
        documented = re.findall(r"^\| (RPR\d{3}) \|", docs, flags=re.M)
        stale = sorted(set(documented) - set(REGISTRY.codes()))
        assert not stale, f"docs/static_analysis.md documents {stale}"


def suppressed_fixture_report(tmp_path):
    """One active and one pragma-suppressed RPR402 in one module."""
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "m.py").write_text(textwrap.dedent("""
        def active(x):
            return x == 0.5

        def acknowledged(x):
            return x == 0.25  # lint: ignore[RPR402] exact literal, audited
    """))
    return run_lint(LintContext(source_root=root), passes=("codebase",))


class TestSuppressedVisibility:
    def test_text_hides_suppressed_by_default(self, tmp_path):
        report = suppressed_fixture_report(tmp_path)
        assert any(f.suppressed for f in report.findings)
        text = render_text(report)
        assert "float literal 0.5" in text
        assert "audited" not in text
        assert "1 suppressed" in text  # the summary still counts it

    def test_show_suppressed_reveals_justifications(self, tmp_path):
        report = suppressed_fixture_report(tmp_path)
        text = render_text(report, show_suppressed=True)
        assert "suppressed" in text
        assert "(justification: exact literal, audited)" in text

    def test_cli_flag_round_trip(self, capsys):
        # Self-lint carries pragma suppressions; the flag must surface
        # them and the default must not.
        args = ["lint", "--self", "--passes", "codebase"]
        assert main(args) == 0
        hidden = capsys.readouterr().out
        assert main(args + ["--show-suppressed"]) == 0
        shown = capsys.readouterr().out
        assert "(justification:" not in hidden
        assert "(justification:" in shown
