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

import importlib

#: Where each export lives, resolved on first access (PEP 562): the CLI's
#: parser reads ``PASS_NAMES`` without loading the analyzer passes.
_EXPORTS = {
    "DiagnosticSeverity": "..errors",
    "LintError": "..errors",
    "BASELINE_VERSION": ".baseline",
    "apply_baseline": ".baseline",
    "dead_entries": ".baseline",
    "fingerprint": ".baseline",
    "load_baseline": ".baseline",
    "prune_baseline": ".baseline",
    "write_baseline": ".baseline",
    "LintContext": ".context",
    "LintOptions": ".context",
    "PASS_NAMES": ".core",
    # The engine imports every rule module, so its registry is populated.
    "REGISTRY": ".engine",
    "Finding": ".core",
    "Rule": ".core",
    "RuleRegistry": ".core",
    "LintEngine": ".engine",
    "LintReport": ".engine",
    "run_lint": ".engine",
    "select_passes": ".engine",
    "run_lint_sharded": ".sharded",
    "JSON_SCHEMA_VERSION": ".reporters",
    "SARIF_VERSION": ".reporters",
    "render_json": ".reporters",
    "render_sarif": ".reporters",
    "render_text": ".reporters",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import an export's module on first access and cache the name."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(  # lint: ignore[RPR404] PEP 562: a module __getattr__ must raise AttributeError for a missing name
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
