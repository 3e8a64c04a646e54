"""Text, JSON, and SARIF rendering of lint reports.

The text form is for humans at a terminal: findings grouped by pass,
worst first, with per-rule truncation so a pathological circuit cannot
scroll the summary away.  The JSON form is for CI and tooling; its schema
is versioned and round-trips through :func:`json.loads` (covered by a
test, since CI gates parse it).  The SARIF form targets GitHub code
scanning: one 2.1.0 run with the full rule table in the driver and every
finding as a result (suppressed ones carry an ``inSource`` suppression,
so they annotate without alerting).
"""

from __future__ import annotations

import json
import re
from typing import Dict, List

from ..errors import DiagnosticSeverity
from .baseline import BASELINE_JUSTIFICATION
from .core import Finding, Rule
from .engine import LintReport

#: Findings shown per rule in text mode before truncating.
MAX_SHOWN_PER_RULE = 5

#: Schema version of the JSON report.
JSON_SCHEMA_VERSION = 2

#: SARIF version / schema the reporter emits.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: DiagnosticSeverity -> SARIF result/configuration level.
_SARIF_LEVEL = {
    DiagnosticSeverity.ERROR: "error",
    DiagnosticSeverity.WARNING: "warning",
    DiagnosticSeverity.INFO: "note",
}

#: ``path/to/file.py:123`` (the location shape file-based passes emit).
_FILE_LOCATION = re.compile(r"^(?P<uri>[^\s:]+\.py):(?P<line>\d+)$")


def render_text(
    report: LintReport,
    verbose: bool = False,
    show_suppressed: bool = False,
) -> str:
    """Human-readable report; ``verbose`` lifts per-rule truncation.

    Suppressed findings are counted in the summary but hidden from the
    listing unless ``show_suppressed`` — an acknowledged finding is
    resolved noise at the terminal, yet must stay one flag away so
    suppressions can be audited without reading pragmas out of source.
    """
    lines: List[str] = []
    for pass_name in report.passes:
        pass_findings = [
            f for f in report.findings
            if f.rule.pass_name == pass_name
            and (show_suppressed or not f.suppressed)
        ]
        if not pass_findings:
            continue
        lines.append(f"[{pass_name}]")
        by_rule: Dict[str, List[Finding]] = {}
        for finding in pass_findings:
            by_rule.setdefault(finding.code, []).append(finding)
        for code in sorted(by_rule):
            shown = by_rule[code]
            hidden = 0
            if not verbose and len(shown) > MAX_SHOWN_PER_RULE:
                hidden = len(shown) - MAX_SHOWN_PER_RULE
                shown = shown[:MAX_SHOWN_PER_RULE]
            for finding in shown:
                lines.append("  " + _format_finding(finding))
            if hidden:
                lines.append(f"  {code}: ... and {hidden} more")
    lines.append(_summary_line(report))
    return "\n".join(lines)


def _format_finding(finding: Finding) -> str:
    tag = "suppressed" if finding.suppressed else finding.severity.value
    where = f" [{finding.location}]" if finding.location else ""
    text = f"{finding.code} {tag:<10} {finding.name}{where}: {finding.message}"
    if finding.suppressed and finding.justification:
        text += f" (justification: {finding.justification})"
    return text


def _summary_line(report: LintReport) -> str:
    counts = report.counts()
    parts = [
        f"{counts['errors']} error(s)",
        f"{counts['warnings']} warning(s)",
        f"{counts['info']} info",
    ]
    if counts["suppressed"]:
        frozen = sum(
            1 for f in report.findings
            if f.suppressed and f.justification == BASELINE_JUSTIFICATION
        )
        part = f"{counts['suppressed']} suppressed"
        if frozen:
            part += f" ({frozen} frozen in baseline)"
        parts.append(part)
    passes = ", ".join(report.passes) or "none"
    return f"lint: {', '.join(parts)} (passes: {passes})"


def render_json(report: LintReport, indent: int = 2) -> str:
    """Machine-readable report (stable, versioned schema)."""
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "passes": list(report.passes),
        "findings": [f.to_dict() for f in report.findings],
        "summary": report.counts(),
    }
    return json.dumps(payload, indent=indent)


def render_sarif(report: LintReport, indent: int = 2) -> str:
    """SARIF 2.1.0 document for GitHub code-scanning upload.

    The driver carries every rule that fired plus its metadata (so the
    code-scanning UI shows the rationale); results reference rules by
    ``ruleId`` and index.  Findings with ``file.py:line`` locations get a
    physical location; circuit/config findings (``net n42``) keep their
    location text in the message instead — SARIF results do not require
    one.
    """
    rules = sorted(
        {f.rule.code: f.rule for f in report.findings}.values(),
        key=lambda r: r.code,
    )
    rule_index = {rule.code: i for i, rule in enumerate(rules)}
    results = [_sarif_result(f, rule_index) for f in report.findings]
    payload = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri":
                        "https://example.invalid/repro/docs/static_analysis.md",
                    "rules": [_sarif_rule(rule) for rule in rules],
                }
            },
            "results": results,
        }],
    }
    return json.dumps(payload, indent=indent)


def _sarif_rule(rule: Rule) -> Dict[str, object]:
    return {
        "id": rule.code,
        "name": rule.name,
        "shortDescription": {"text": rule.summary},
        "defaultConfiguration": {"level": _SARIF_LEVEL[rule.severity]},
        "properties": {"pass": rule.pass_name},
    }


def _sarif_result(
    finding: Finding, rule_index: Dict[str, int]
) -> Dict[str, object]:
    message = finding.message
    result: Dict[str, object] = {
        "ruleId": finding.code,
        "ruleIndex": rule_index[finding.code],
        "level": _SARIF_LEVEL[finding.severity],
        "message": {"text": message},
    }
    location = finding.location or ""
    match = _FILE_LOCATION.match(location)
    if match:
        result["locations"] = [{
            "physicalLocation": {
                "artifactLocation": {"uri": match.group("uri").replace("\\", "/")},
                "region": {"startLine": int(match.group("line"))},
            }
        }]
    elif location:
        result["message"] = {"text": f"{message} (at {location})"}
    if finding.suppressed:
        result["suppressions"] = [{
            "kind": "inSource",
            "justification": finding.justification or "",
        }]
    return result
