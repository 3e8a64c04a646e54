"""The packages that export on first access still export what they did.

``repro`` and ``repro.lint`` resolve their exports on first access
(PEP 562) through an ``_EXPORTS`` map of name to submodule, so a stale
entry no longer fails ``import repro``; it would fail only when someone
read that name.  These cases read every name, and hold ``__all__`` to
the list each package exported when it imported its subsystems eagerly.
"""

import importlib

import pytest

import repro
import repro.lint

#: ``repro.__all__`` of the eager ``__init__``.
REPRO_ALL = [
    "ArtifactStore", "CampaignError", "CampaignResult", "CampaignSpec",
    "Circuit", "ComparisonRow", "ESTIMATOR_NAMES", "ExperimentSetup",
    "Library", "MetricsSnapshot", "OptimizationResult", "OptimizerConfig",
    "ReproError", "SampleShardPlan", "Technology", "Telemetry",
    "VariationModel", "VariationSpec", "VthClass", "YieldEstimate",
    "__version__", "analyze_dynamic_power", "analyze_leakage",
    "analyze_statistical_leakage", "benchmark_suite", "build_variation_model",
    "default_library", "default_variation", "estimate_timing_yield",
    "get_estimator", "get_technology", "get_telemetry", "load_bench",
    "load_spec", "make_benchmark", "optimize_deterministic",
    "optimize_statistical", "parse_bench", "prepare", "provenance",
    "run_campaign", "run_comparison", "run_monte_carlo_leakage",
    "run_monte_carlo_sta", "run_ssta", "run_sta", "telemetry_session",
    "yield_matched_deterministic",
]

#: ``repro.lint.__all__`` of the eager ``__init__``.
LINT_ALL = [
    "BASELINE_VERSION", "DiagnosticSeverity", "Finding", "JSON_SCHEMA_VERSION",
    "LintContext", "LintEngine", "LintError", "LintOptions", "LintReport",
    "PASS_NAMES", "REGISTRY", "Rule", "RuleRegistry", "SARIF_VERSION",
    "apply_baseline", "dead_entries", "fingerprint", "load_baseline",
    "prune_baseline", "render_json", "render_sarif", "render_text",
    "run_lint", "run_lint_sharded", "select_passes", "write_baseline",
]

EAGER_ALL = {"repro": REPRO_ALL, "repro.lint": LINT_ALL}

PACKAGES = pytest.mark.parametrize(
    "package", [repro, repro.lint], ids=["repro", "repro.lint"]
)


@PACKAGES
def test_all_is_the_eager_list(package):
    assert sorted(package.__all__) == EAGER_ALL[package.__name__]
    assert dir(package) == EAGER_ALL[package.__name__]


@PACKAGES
def test_every_mapped_export_is_its_module_attribute(package):
    for name, module in package._EXPORTS.items():
        home = importlib.import_module(module, package.__name__)
        assert getattr(package, name) is getattr(home, name), name


@PACKAGES
def test_an_unknown_name_raises_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_export"):
        package.__getattr__("no_such_export")


def test_provenance_is_the_function():
    from repro.provenance import provenance

    assert repro.provenance is provenance


def test_lint_registry_is_the_core_registry_with_every_pass_populated():
    from repro.lint import core

    assert repro.lint.REGISTRY is core.REGISTRY
    for pass_name in core.PASS_NAMES:
        assert repro.lint.REGISTRY.rules(pass_name), pass_name
        assert repro.lint.REGISTRY.checks(pass_name), pass_name
