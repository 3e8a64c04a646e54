"""Rule and finding primitives of the static-analysis engine.

A :class:`Rule` is a stable, documented invariant with an ``RPRxxx`` code;
a :class:`Finding` is one concrete violation of a rule, possibly
*suppressed* (acknowledged with a justification rather than fixed).  The
:class:`RuleRegistry` maps codes to rules and groups the check functions
into the seven analyzer passes (``circuit``, ``technology``, ``config``,
``codebase``, the interprocedural ``units`` / ``rng`` passes, and the
``artifacts`` durability pass) the engine runs.

Check functions take a :class:`repro.lint.context.LintContext` and yield
findings; one check may report for several related rules (the AST pass
does), so checks are registered per *pass*, not per rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import DiagnosticSeverity, LintError

#: The analyzer passes, in the order the engine runs them.
PASS_NAMES: Tuple[str, ...] = (
    "circuit", "technology", "config", "codebase", "units", "rng",
    "artifacts",
)


@dataclass(frozen=True)
class Rule:
    """One registered static-analysis invariant.

    Attributes
    ----------
    code:
        Stable identifier, ``RPR`` + three digits; the hundreds digit is
        the pass (1 circuit, 2 technology, 3 config, 4 codebase,
        5 units, 6 rng, 7 artifacts).
    name:
        Short kebab-case slug (kept stable too — :func:`lint_circuit`
        compatibility and suppression pragmas rely on it).
    severity:
        Default severity of findings for this rule.
    summary:
        One-line rationale, rendered into ``docs/static_analysis.md``.
    pass_name:
        Which analyzer pass emits this rule.
    """

    code: str
    name: str
    severity: DiagnosticSeverity
    summary: str
    pass_name: str

    def __post_init__(self) -> None:
        if not (len(self.code) == 6 and self.code.startswith("RPR")
                and self.code[3:].isdigit()):
            raise LintError(f"rule code must look like RPR123, got {self.code!r}")
        if self.pass_name not in PASS_NAMES:
            raise LintError(
                f"{self.code}: unknown pass {self.pass_name!r}; "
                f"expected one of {PASS_NAMES}"
            )

    def finding(
        self,
        message: str,
        location: Optional[str] = None,
        suppressed: bool = False,
        justification: Optional[str] = None,
    ) -> "Finding":
        """Create a finding for this rule."""
        return Finding(
            rule=self,
            message=message,
            location=location,
            suppressed=suppressed,
            justification=justification,
        )


@dataclass(frozen=True)
class Finding:
    """One concrete rule violation.

    ``suppressed`` findings were acknowledged at the violation site (an
    inline ``lint: ignore`` pragma naming the rule's code) or frozen in a
    baseline; they are still reported but never affect the exit code.
    """

    rule: Rule
    message: str
    location: Optional[str] = None
    suppressed: bool = False
    justification: Optional[str] = None

    @property
    def code(self) -> str:
        """The rule's stable ``RPRxxx`` code."""
        return self.rule.code

    @property
    def name(self) -> str:
        """The rule's kebab-case slug."""
        return self.rule.name

    @property
    def severity(self) -> DiagnosticSeverity:
        """Severity of this finding (the rule's default)."""
        return self.rule.severity

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (used by the JSON reporter)."""
        return {
            "code": self.code,
            "name": self.name,
            "severity": self.severity.value,
            "pass": self.rule.pass_name,
            "message": self.message,
            "location": self.location,
            "suppressed": self.suppressed,
            "justification": self.justification,
        }


#: Signature of a registered check: context in, findings out.
CheckFunction = Callable[["object"], Iterable[Finding]]


@dataclass
class RuleRegistry:
    """Rules by code plus check functions grouped by pass."""

    _rules: Dict[str, Rule] = field(default_factory=dict)
    _checks: Dict[str, List[CheckFunction]] = field(default_factory=dict)

    def add_rule(self, rule: Rule) -> Rule:
        """Register a rule; codes and names must be unique."""
        if rule.code in self._rules:
            raise LintError(f"duplicate rule code {rule.code}")
        if any(r.name == rule.name for r in self._rules.values()):
            raise LintError(f"duplicate rule name {rule.name!r}")
        self._rules[rule.code] = rule
        return rule

    def check(self, pass_name: str) -> Callable[[CheckFunction], CheckFunction]:
        """Decorator registering a check function under a pass."""
        if pass_name not in PASS_NAMES:
            raise LintError(f"unknown pass {pass_name!r}")

        def decorate(fn: CheckFunction) -> CheckFunction:
            self._checks.setdefault(pass_name, []).append(fn)
            return fn

        return decorate

    def rule(self, code: str) -> Rule:
        """Look up a rule by ``RPRxxx`` code (raises :class:`LintError`)."""
        try:
            return self._rules[code]
        except KeyError:
            known = ", ".join(sorted(self._rules))
            raise LintError(f"unknown rule {code!r}; registered: {known}") from None

    def rules(self, pass_name: Optional[str] = None) -> Tuple[Rule, ...]:
        """All rules (of one pass, if given), sorted by code."""
        selected = [
            r for r in self._rules.values()
            if pass_name is None or r.pass_name == pass_name
        ]
        return tuple(sorted(selected, key=lambda r: r.code))

    def checks(self, pass_name: str) -> Tuple[CheckFunction, ...]:
        """Check functions registered under a pass."""
        return tuple(self._checks.get(pass_name, ()))

    def codes(self) -> Tuple[str, ...]:
        """All registered rule codes, sorted."""
        return tuple(sorted(self._rules))

    def validate_codes(self, codes: Iterable[str]) -> Tuple[str, ...]:
        """Normalize a code collection, rejecting unknown entries."""
        out = []
        for code in codes:
            self.rule(code)  # raises on unknown
            out.append(code)
        return tuple(out)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules())


#: The process-wide default registry every rule module populates on import.
REGISTRY = RuleRegistry()
