"""Uniform metric snapshots for optimizer results and experiment tables."""

from __future__ import annotations

from typing import Dict, Mapping, NamedTuple, Optional

from ..circuit.netlist import Circuit
from ..power.dynamic import analyze_dynamic_power
from ..power.leakage import GateLeakage, LeakageBreakdown
from ..power.probability import (
    pin_probabilities,
    signal_probabilities,
    switching_activities,
)
from ..power.statistical import analyze_statistical_leakage, leakage_lognormal_sum
from ..tech.corners import ProcessCorner
from ..tech.technology import VthClass
from ..telemetry import get_telemetry
from ..timing.graph import TimingView
from ..timing.ssta import run_ssta
from ..timing.sta import run_sta
from ..variation.lognormal import LognormalSum
from ..variation.model import VariationModel
from .config import OptimizerConfig
from .result import MetricsSnapshot


class MetricModels(NamedTuple):
    """What every metric snapshot of a run reads, built together by
    :func:`metric_models`: the nominal leakage model and the switching
    activities from one set of signal probabilities, the leakage moments'
    loading-only half from ``varmodel``."""

    varmodel: VariationModel
    leakage: GateLeakage
    lognormal_sum: LognormalSum
    activities: Dict[str, float]


def metric_models(
    circuit: Circuit,
    varmodel: VariationModel,
    probs: Optional[Mapping[str, float]] = None,
) -> MetricModels:
    """A run's :class:`MetricModels`, built once; ``probs`` are net signal
    probabilities by name, by default :func:`signal_probabilities`'.

    A flow shares ``leakage`` and ``lognormal_sum`` with its objective.
    """
    if probs is None:
        probs = signal_probabilities(circuit)
    return MetricModels(
        varmodel=varmodel,
        leakage=GateLeakage(circuit, pin_probabilities(circuit, probs)),
        lognormal_sum=leakage_lognormal_sum(circuit, varmodel),
        activities=switching_activities(circuit, probs),
    )


def snapshot_metrics(
    view: TimingView,
    models: MetricModels,
    target_delay: float,
    corner: ProcessCorner,
    config: OptimizerConfig,
) -> MetricsSnapshot:
    """Measure every reported figure of merit at the current state.

    This is intentionally the *same* measurement code for both flows and
    for before/after states — the experiment tables compare identically-
    produced numbers.  ``models`` are the run's (:func:`metric_models`);
    timing reads its variation model, and one set of gate currents serves
    both leakage figures.
    """
    circuit: Circuit = view.circuit
    varmodel = models.varmodel
    with get_telemetry().span("opt.metrics"):
        nominal_sta = run_sta(view)
        corner_sta = run_sta(view, corner=corner)
        ssta = run_ssta(view, varmodel)
        currents = models.leakage.currents()
        stat_leak = analyze_statistical_leakage(
            circuit, varmodel,
            derate_rdf_with_size=config.derate_rdf_with_size,
            nominal_currents=currents,
            lognormal_sum=models.lognormal_sum,
        )
        nominal_leak = LeakageBreakdown(currents=currents, vdd=circuit.library.tech.vdd)
        dynamic = analyze_dynamic_power(view, activities=models.activities)
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
