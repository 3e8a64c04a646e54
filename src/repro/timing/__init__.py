"""Deterministic and statistical timing analysis (substrates S7/S8/S9)."""

from .canonical import Canonical, CanonicalArray, maximum_of
from .clark import max_moments, min_moments, norm_cdf, norm_pdf
from .graph import LevelSchedule, TimingConfig, TimingView
from .mc import (
    MCTimingResult,
    ProcessSamples,
    TimingKernel,
    draw_samples,
    run_monte_carlo_sta,
)
from .slack import StatisticalSlackResult, statistical_slacks
from .ssta import SSTAResult, gate_delay_canonicals, run_ssta
from .sta import STAResult, corner_delay_factor, run_sta
from .yield_est import (
    degenerate_cdf,
    degenerate_quantile,
    empirical_yield_curve,
    estimate_timing_yield,
    yield_curve,
)

__all__ = [
    "Canonical",
    "CanonicalArray",
    "MCTimingResult",
    "LevelSchedule",
    "ProcessSamples",
    "SSTAResult",
    "STAResult",
    "StatisticalSlackResult",
    "TimingConfig",
    "TimingKernel",
    "TimingView",
    "corner_delay_factor",
    "degenerate_cdf",
    "degenerate_quantile",
    "draw_samples",
    "empirical_yield_curve",
    "estimate_timing_yield",
    "gate_delay_canonicals",
    "max_moments",
    "maximum_of",
    "min_moments",
    "norm_cdf",
    "norm_pdf",
    "run_monte_carlo_sta",
    "run_ssta",
    "statistical_slacks",
    "run_sta",
    "yield_curve",
]
