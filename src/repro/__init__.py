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

from .analysis import (
    ComparisonRow,
    ExperimentSetup,
    prepare,
    run_comparison,
    yield_matched_deterministic,
)
from .circuit import (
    Circuit,
    benchmark_suite,
    build_variation_model,
    load_bench,
    make_benchmark,
    parse_bench,
)
from .core import (
    MetricsSnapshot,
    OptimizationResult,
    OptimizerConfig,
    optimize_deterministic,
    optimize_statistical,
)
from .campaign import (
    ArtifactStore,
    CampaignResult,
    CampaignSpec,
    load_spec,
    run_campaign,
)
from .errors import CampaignError, ReproError
from .provenance import provenance
from .power import (
    analyze_dynamic_power,
    analyze_leakage,
    analyze_statistical_leakage,
    run_monte_carlo_leakage,
)
from .tech import Library, Technology, VthClass, default_library, get_technology
from .telemetry import Telemetry, get_telemetry, telemetry_session
from .mcstat import ESTIMATOR_NAMES, YieldEstimate, get_estimator
from .parallel import SampleShardPlan
from .timing import (
    estimate_timing_yield,
    run_monte_carlo_sta,
    run_ssta,
    run_sta,
)
from .variation import VariationModel, VariationSpec, default_variation

__version__ = "0.1.0"

__all__ = [
    "ArtifactStore",
    "CampaignError",
    "CampaignResult",
    "CampaignSpec",
    "Circuit",
    "ComparisonRow",
    "ESTIMATOR_NAMES",
    "ExperimentSetup",
    "Library",
    "MetricsSnapshot",
    "OptimizationResult",
    "OptimizerConfig",
    "ReproError",
    "SampleShardPlan",
    "Technology",
    "Telemetry",
    "VariationModel",
    "VariationSpec",
    "VthClass",
    "YieldEstimate",
    "__version__",
    "analyze_dynamic_power",
    "analyze_leakage",
    "analyze_statistical_leakage",
    "benchmark_suite",
    "build_variation_model",
    "default_library",
    "default_variation",
    "estimate_timing_yield",
    "get_estimator",
    "get_technology",
    "get_telemetry",
    "load_bench",
    "load_spec",
    "make_benchmark",
    "optimize_deterministic",
    "optimize_statistical",
    "parse_bench",
    "prepare",
    "provenance",
    "run_campaign",
    "run_comparison",
    "run_monte_carlo_leakage",
    "run_monte_carlo_sta",
    "run_ssta",
    "run_sta",
    "telemetry_session",
    "yield_matched_deterministic",
]
