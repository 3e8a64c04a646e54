"""Leakage and dynamic power analysis (substrate S10)."""

from .dynamic import DEFAULT_CLOCK_HZ, DynamicPower, analyze_dynamic_power
from .leakage import (
    GateLeakage,
    LeakageBreakdown,
    analyze_leakage,
    gate_leakage_currents,
    leakage_by_vth_class,
)
from .mc import MCLeakageResult, run_monte_carlo_leakage
from .probability import (
    gate_input_probabilities,
    net_probabilities,
    pin_probabilities,
    signal_probabilities,
    switching_activities,
)
from .temperature import leakage_temperature_sweep
from .statistical import (
    DEFAULT_CONFIDENCE_K,
    StatisticalLeakage,
    analyze_statistical_leakage,
    gate_log_leakage_terms,
    leakage_lognormal_sum,
)

__all__ = [
    "DEFAULT_CLOCK_HZ",
    "DEFAULT_CONFIDENCE_K",
    "DynamicPower",
    "GateLeakage",
    "LeakageBreakdown",
    "MCLeakageResult",
    "StatisticalLeakage",
    "analyze_dynamic_power",
    "analyze_leakage",
    "analyze_statistical_leakage",
    "gate_input_probabilities",
    "gate_leakage_currents",
    "gate_log_leakage_terms",
    "leakage_temperature_sweep",
    "leakage_by_vth_class",
    "leakage_lognormal_sum",
    "net_probabilities",
    "pin_probabilities",
    "run_monte_carlo_leakage",
    "signal_probabilities",
    "switching_activities",
]
