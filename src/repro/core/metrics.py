"""Uniform metric snapshots for optimizer results and experiment tables."""

from __future__ import annotations

from typing import Mapping, Optional

from ..circuit.netlist import Circuit
from ..power.dynamic import analyze_dynamic_power
from ..power.leakage import analyze_leakage
from ..power.probability import switching_activities
from ..power.statistical import analyze_statistical_leakage
from ..tech.corners import ProcessCorner
from ..tech.technology import VthClass
from ..telemetry import get_telemetry
from ..timing.graph import TimingView
from ..timing.ssta import run_ssta
from ..timing.sta import run_sta
from ..variation.model import VariationModel
from .config import OptimizerConfig
from .result import MetricsSnapshot


def snapshot_metrics(
    view: TimingView,
    varmodel: VariationModel,
    target_delay: float,
    corner: ProcessCorner,
    config: OptimizerConfig,
    probs: Optional[Mapping[str, float]] = None,
) -> MetricsSnapshot:
    """Measure every reported figure of merit at the current state.

    This is intentionally the *same* measurement code for both flows and
    for before/after states — the experiment tables compare identically-
    produced numbers.
    """
    circuit: Circuit = view.circuit
    with get_telemetry().span("opt.metrics"):
        nominal_sta = run_sta(view)
        corner_sta = run_sta(view, corner=corner)
        ssta = run_ssta(view, varmodel)
        stat_leak = analyze_statistical_leakage(
            circuit, varmodel, probs=probs,
            derate_rdf_with_size=config.derate_rdf_with_size,
        )
        nominal_leak = analyze_leakage(circuit, probs=probs)
        dynamic = analyze_dynamic_power(
            view, activities=switching_activities(circuit, probs)
        )
    counts = circuit.count_vth()
    n = circuit.n_gates
    return MetricsSnapshot(
        nominal_delay=nominal_sta.circuit_delay,
        corner_delay=corner_sta.circuit_delay,
        mean_delay=ssta.circuit_delay.mean,
        sigma_delay=ssta.circuit_delay.sigma,
        timing_yield=ssta.timing_yield(target_delay),
        nominal_leakage=nominal_leak.total_power,
        mean_leakage=stat_leak.mean_power,
        p95_leakage=stat_leak.percentile_power(0.95),
        hc_leakage=stat_leak.high_confidence_power(config.confidence_k),
        dynamic_power=dynamic.total,
        high_vth_fraction=counts[VthClass.HIGH] / n,
        total_size=circuit.total_device_width(),
    )
