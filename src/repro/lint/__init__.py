"""Static analysis for the repro flow (``repro lint``).

Seven analyzer passes over one rule registry:

===============  ==========  ==================================================
pass             codes       subject
===============  ==========  ==================================================
``circuit``      RPR1xx      a frozen :class:`~repro.circuit.netlist.Circuit`
``technology``   RPR2xx      a characterized
                             :class:`~repro.tech.library.Library`
``config``       RPR3xx      an :class:`~repro.core.config.OptimizerConfig`
                             (plus optional variation spec / anneal schedule /
                             target)
``codebase``     RPR4xx      the ``src/repro`` source tree itself (AST rules)
``units``        RPR5xx      interprocedural units propagation over the tree
``rng``          RPR6xx      interprocedural RNG-determinism taint analysis
``artifacts``    RPR7xx      durability of result/artifact writes (atomic-write
                             discipline for everything the store trusts)
===============  ==========  ==================================================

The source-tree passes share one cached parse per file through
:meth:`LintContext.module_index` and one set of interprocedural
structures through :meth:`LintContext.whole_program` (the
:mod:`repro.lint.analysis` substrate).  Typical use::

    from repro.lint import LintContext, run_lint, render_text

    report = run_lint(LintContext(circuit=circuit, library=lib))
    print(render_text(report))
    raise SystemExit(report.exit_code())

Every rule is documented with its rationale in ``docs/static_analysis.md``.
"""

from ..errors import DiagnosticSeverity, LintError
from .baseline import (
    BASELINE_VERSION,
    apply_baseline,
    dead_entries,
    fingerprint,
    load_baseline,
    prune_baseline,
    write_baseline,
)
from .context import LintContext, LintOptions
from .core import PASS_NAMES, REGISTRY, Finding, Rule, RuleRegistry
from .engine import LintEngine, LintReport, run_lint, select_passes
from .sharded import run_lint_sharded
from .reporters import (
    JSON_SCHEMA_VERSION,
    SARIF_VERSION,
    render_json,
    render_sarif,
    render_text,
)

__all__ = [
    "BASELINE_VERSION",
    "DiagnosticSeverity",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LintContext",
    "LintEngine",
    "LintError",
    "LintOptions",
    "LintReport",
    "PASS_NAMES",
    "REGISTRY",
    "Rule",
    "RuleRegistry",
    "SARIF_VERSION",
    "apply_baseline",
    "dead_entries",
    "fingerprint",
    "load_baseline",
    "prune_baseline",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
    "run_lint_sharded",
    "select_passes",
    "write_baseline",
]
