"""The multi-pass lint engine and its report object.

The engine is deliberately dumb: it asks the registry for the checks of
every runnable pass (a pass runs when the context carries its subject),
executes them in order, and folds the findings into a :class:`LintReport`.
All intelligence lives in the rules; all policy (what fails a build) lives
in :meth:`LintReport.exit_code`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..errors import DiagnosticSeverity, LintError
from .context import LintContext
from .core import PASS_NAMES, REGISTRY, Finding, RuleRegistry

# Importing the rule modules populates the default registry.
from . import circuit_rules as _circuit_rules  # noqa: F401
from . import tech_rules as _tech_rules  # noqa: F401
from . import config_rules as _config_rules  # noqa: F401
from . import codebase as _codebase  # noqa: F401
from . import units_rules as _units_rules  # noqa: F401
from . import rng_rules as _rng_rules  # noqa: F401
from . import artifact_rules as _artifact_rules  # noqa: F401
from . import service_rules as _service_rules  # noqa: F401


@dataclass(frozen=True)
class LintReport:
    """Outcome of one engine run.

    ``findings`` contains *everything* the rules emitted, including
    suppressed findings; :meth:`active` filters to the ones that count.
    """

    findings: Tuple[Finding, ...]
    passes: Tuple[str, ...]

    def active(self) -> Tuple[Finding, ...]:
        """Unsuppressed findings (the ones that can fail a build)."""
        return tuple(f for f in self.findings if not f.suppressed)

    def by_severity(self, severity: DiagnosticSeverity) -> Tuple[Finding, ...]:
        """Active findings at exactly the given severity."""
        return tuple(f for f in self.active() if f.severity is severity)

    @property
    def n_errors(self) -> int:
        """Count of active error findings."""
        return len(self.by_severity(DiagnosticSeverity.ERROR))

    @property
    def n_warnings(self) -> int:
        """Count of active warning findings."""
        return len(self.by_severity(DiagnosticSeverity.WARNING))

    @property
    def n_info(self) -> int:
        """Count of active info findings."""
        return len(self.by_severity(DiagnosticSeverity.INFO))

    @property
    def n_suppressed(self) -> int:
        """Count of suppressed findings."""
        return len(self.findings) - len(self.active())

    def worst(self) -> Optional[DiagnosticSeverity]:
        """Highest severity among active findings, or None when clean."""
        active = self.active()
        if not active:
            return None
        return max((f.severity for f in active), key=lambda s: s.rank)

    def counts(self) -> Dict[str, int]:
        """Summary counts (the JSON reporter's ``summary`` block)."""
        return {
            "errors": self.n_errors,
            "warnings": self.n_warnings,
            "info": self.n_info,
            "suppressed": self.n_suppressed,
        }

    def exit_code(self, strict: bool = False) -> int:
        """Process exit code: 1 on errors (or, with ``strict``, warnings)."""
        if self.n_errors:
            return 1
        if strict and self.n_warnings:
            return 1
        return 0


def select_passes(
    ctx: LintContext, passes: Optional[Sequence[str]] = None
) -> Tuple[str, ...]:
    """The passes a run over ``ctx`` executes, in engine order.

    Asking for a pass whose subject is missing from the context raises
    :class:`LintError` (a silent skip would read as a clean bill of
    health the engine never issued).  Shared by the serial engine and
    the sharded runner so both agree on the report's ``passes`` tuple.
    """
    available = ctx.available_passes()
    if passes is None:
        return available
    for name in passes:
        if name not in PASS_NAMES:
            raise LintError(f"unknown pass {name!r}; expected {PASS_NAMES}")
        if name not in available:
            raise LintError(
                f"pass {name!r} requested but its subject is missing "
                f"from the context (available: {available or 'none'})"
            )
    return tuple(n for n in PASS_NAMES if n in passes)


class LintEngine:
    """Runs registry passes over a context."""

    def __init__(self, registry: RuleRegistry = REGISTRY) -> None:
        self.registry = registry

    def run(
        self,
        ctx: LintContext,
        passes: Optional[Sequence[str]] = None,
    ) -> LintReport:
        """Execute the runnable passes and collect a report.

        ``passes`` restricts the run; asking for a pass whose subject is
        missing from the context raises :class:`LintError` (a silent skip
        would read as a clean bill of health the engine never issued).
        """
        selected = select_passes(ctx, passes)
        ignored = self.registry.validate_codes(ctx.options.ignore)
        findings = []
        for pass_name in selected:
            for check in self.registry.checks(pass_name):
                for finding in check(ctx):
                    if finding.code not in ignored:
                        findings.append(finding)
        findings.sort(key=_finding_order)
        return LintReport(findings=tuple(findings), passes=tuple(selected))


def _finding_order(finding: Finding) -> Tuple[int, str, str, str, bool]:
    # A *total* order: the sharded runner merges per-shard reports by
    # re-sorting, so ties must break on content, never on arrival order.
    return (
        -finding.severity.rank,
        finding.code,
        finding.location or "",
        finding.message,
        finding.suppressed,
    )


def run_lint(
    ctx: LintContext, passes: Optional[Iterable[str]] = None
) -> LintReport:
    """Convenience wrapper: run the default engine over a context."""
    return LintEngine().run(ctx, passes=tuple(passes) if passes is not None else None)
