"""repro — statistical leakage-power optimization under process variation.

A from-scratch reproduction of *"Statistical optimization of leakage power
considering process variations using dual-Vth and sizing"* (Srivastava,
Sylvester, Blaauw — DAC 2004), including every substrate the paper's flow
sits on: an analytic device/cell-library model, gate-level netlists and
ISCAS85-profile benchmarks, process-variation modeling with spatial
correlation, deterministic and statistical STA, analytic and Monte-Carlo
leakage statistics, and the deterministic-vs-statistical dual-Vth + sizing
optimizers themselves.

Quickstart
----------
>>> from repro import prepare, run_comparison
>>> setup = prepare("c432")
>>> row = run_comparison(setup)
>>> row.extra_mean_savings > 0
True

See ``examples/`` for complete walkthroughs and ``benchmarks/`` for the
scripts regenerating every table and figure of the paper's evaluation.
"""

import importlib

# ``provenance`` names both a submodule and the function it exports.  A
# submodule's first import binds the package attribute to the module, so
# the function is bound here, right after that import, as it always was.
from .provenance import provenance

#: Where each export lives.  Resolved on first access (PEP 562), so
#: ``import repro`` loads none of the subsystems: a caller pays only for
#: the ones it names.
_EXPORTS = {
    "ComparisonRow": ".analysis",
    "ExperimentSetup": ".analysis",
    "prepare": ".analysis",
    "run_comparison": ".analysis",
    "yield_matched_deterministic": ".analysis",
    "Circuit": ".circuit",
    "benchmark_suite": ".circuit",
    "build_variation_model": ".circuit",
    "load_bench": ".circuit",
    "make_benchmark": ".circuit",
    "parse_bench": ".circuit",
    "MetricsSnapshot": ".core",
    "OptimizationResult": ".core",
    "OptimizerConfig": ".core",
    "optimize_deterministic": ".core",
    "optimize_statistical": ".core",
    "ArtifactStore": ".campaign",
    "CampaignResult": ".campaign",
    "CampaignSpec": ".campaign",
    "load_spec": ".campaign",
    "run_campaign": ".campaign",
    "CampaignError": ".errors",
    "ReproError": ".errors",
    "analyze_dynamic_power": ".power",
    "analyze_leakage": ".power",
    "analyze_statistical_leakage": ".power",
    "run_monte_carlo_leakage": ".power",
    "Library": ".tech",
    "Technology": ".tech",
    "VthClass": ".tech",
    "default_library": ".tech",
    "get_technology": ".tech",
    "Telemetry": ".telemetry",
    "get_telemetry": ".telemetry",
    "telemetry_session": ".telemetry",
    "ESTIMATOR_NAMES": ".mcstat",
    "YieldEstimate": ".mcstat",
    "get_estimator": ".mcstat",
    "SampleShardPlan": ".parallel",
    "estimate_timing_yield": ".timing",
    "run_monte_carlo_sta": ".timing",
    "run_ssta": ".timing",
    "run_sta": ".timing",
    "VariationModel": ".variation",
    "VariationSpec": ".variation",
    "default_variation": ".variation",
}

__version__ = "0.1.0"

__all__ = sorted(["__version__", "provenance", *_EXPORTS])


def __getattr__(name: str):
    """Import an export's subsystem on first access and cache the name."""
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
