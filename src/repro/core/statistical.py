"""Statistical dual-Vth + sizing optimizer — the paper's contribution.

Differences from the deterministic baseline, each mirroring a claim of the
paper:

* **constraint**: timing *yield* ``P(delay <= Tmax) >= eta`` from SSTA,
  instead of the all-devices-slow corner.  Because a real die never has
  every device at its own worst case, the corner is far more pessimistic
  than any realistic yield target — so the statistical flow has much more
  room to trade speed for leakage;
* **objective**: a high-confidence point (``mean + k sigma``) of the
  *leakage distribution* (correlated-lognormal sum) instead of nominal
  leakage.  Variance matters: each gate's statistical leakage contribution
  is its nominal value inflated by ``exp(sigma_g^2 / 2)`` and its
  covariance with the rest of the chip through the shared global factors;
* **move cost model**: the expected circuit-delay impact of slowing a gate
  is its delay increase weighted by its SSTA *criticality* (probability of
  lying on the critical path) — a gate that is almost never critical is
  almost free to slow down, something corner slack cannot express.

The mechanics (greedy, chunked exact validation) are shared with the
baseline via :class:`repro.core.engine.GreedyEngine`, so measured savings
isolate the statistical treatment itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..engines import get_engine
from ..normal import ndtri
from ..power.leakage import GateLeakage
from ..power.statistical import analyze_statistical_leakage
from ..tech.corners import slow_corner
from ..tech.technology import VthClass
from ..telemetry import get_telemetry
from ..timing.graph import TimingConfig, TimingView
from ..timing.ssta import SSTAResult, run_ssta
from ..timing.sta import STAResult, run_sta
from ..timing.yield_est import estimate_timing_yield
from ..variation.lognormal import LognormalSum
from ..variation.model import VariationModel
from ..variation.parameters import VariationSpec
from .config import OptimizerConfig
from .engine import ConstraintStrategy, run_phased
from .metrics import metric_models, snapshot_metrics
from .result import OptimizationResult
from .sizing import minimize_delay

#: Criticality floor so fully non-critical gates still carry a tiny cost
#: (keeps scores finite and prefers genuinely cheap moves among them).
_CRITICALITY_FLOOR = 1e-3


@dataclass
class _StatState:
    sta: STAResult  # nominal STA: mean-slack filter
    ssta: SSTAResult  # criticality + yield headroom


class StatisticalStrategy(ConstraintStrategy):
    """Yield constraint + statistical-leakage objective.

    ``leakage`` gives the nominal gate currents the objective's lognormal
    sum starts from, and ``lognormal_sum`` the sum's loading-only half,
    built from ``varmodel``: the flow passes those of its
    :class:`~repro.core.metrics.MetricModels`.
    """

    name = "statistical"

    def __init__(
        self,
        view: TimingView,
        varmodel: VariationModel,
        target_delay: float,
        config: OptimizerConfig,
        leakage: GateLeakage,
        lognormal_sum: LognormalSum,
    ) -> None:
        self.view = view
        self.varmodel = varmodel
        self.target_delay = target_delay
        self.config = config
        self.leakage = leakage
        self.lognormal_sum = lognormal_sum
        #: Standard-normal quantile of the yield target (the config is
        #: frozen, so once per strategy).
        self._z = ndtri(config.yield_target)

    def analyze(self) -> _StatState:
        # The yield constraint P(D <= Tmax) >= eta binds, in the mean
        # domain, at roughly Tmax - z_eta * sigma_D.  Slacks for the local
        # filter and the cost model are therefore measured against that
        # *effective* mean budget, not against Tmax itself — otherwise the
        # filter admits moves that the exact SSTA validation must then
        # reject one chunk at a time.
        ssta = run_ssta(self.view, self.varmodel)
        effective = self.target_delay - self._z * ssta.circuit_delay.sigma
        effective = max(effective, 0.5 * ssta.circuit_delay.mean)
        return _StatState(
            sta=run_sta(self.view, target_delay=effective),
            ssta=ssta,
        )

    def is_feasible(self) -> bool:
        return self.evaluate_yield() >= self.config.yield_target

    def evaluate_yield(self) -> float:
        """Timing yield at the current state: sampled MC, or an engine.

        With ``yield_mc_samples > 0`` the exact constraint check runs
        ``config.yield_estimator`` under common random numbers (fixed
        seed): free of the Clark-max approximation and deterministic
        across re-validations.  Otherwise the yield is read off
        ``config.timing_engine``'s delay distribution.  Either way any
        sampling is spread over ``config.n_jobs`` workers.
        """
        tele = get_telemetry()
        config = self.config
        if config.yield_mc_samples > 0:
            estimator = config.yield_estimator
            with tele.span("opt.yield_eval", mode="mc", estimator=estimator):
                tele.counter("opt_yield_evals_total", mode="mc").inc()
                return estimate_timing_yield(
                    self.view,
                    self.varmodel,
                    self.target_delay,
                    n_samples=config.yield_mc_samples,
                    seed=config.yield_mc_seed,
                    n_jobs=config.n_jobs,
                    estimator=estimator,
                ).timing_yield
        engine = config.timing_engine
        with tele.span("opt.yield_eval", mode="engine", engine=engine):
            tele.counter("opt_yield_evals_total", mode="engine").inc()
            result = get_engine(engine).analyze(
                self.view, self.varmodel, n_jobs=config.n_jobs
            )
            return result.yield_at(self.target_delay)

    def objective(self) -> float:
        stat = analyze_statistical_leakage(
            self.view.circuit,
            self.varmodel,
            derate_rdf_with_size=self.config.derate_rdf_with_size,
            nominal_currents=self.leakage.currents(),
            lognormal_sum=self.lognormal_sum,
        )
        return stat.high_confidence_power(self.config.confidence_k)

    def move_costs(
        self, state: _StatState, index: np.ndarray, delay_cost: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        # Mean-slack filter against the effective (sigma-guarded) budget.
        slack = state.sta.slacks[index]
        allowed = delay_cost <= slack * self.config.slack_safety
        if not allowed.any():  # criticality is computed on first read
            return allowed, np.empty(0)
        # Two statistical prices multiply: how much of the gate's
        # effective mean slack the move consumes, and how likely the gate
        # is to sit on the critical path.  Slack-rich, rarely-critical
        # gates rank as nearly free; tight or frequently-critical gates
        # rank as expensive.
        crit = np.maximum(state.ssta.criticality[index[allowed]], _CRITICALITY_FLOOR)
        slack = np.maximum(slack[allowed], 1e-15)
        return allowed, delay_cost[allowed] * crit / slack


def optimize_statistical(
    circuit: Circuit,
    spec: VariationSpec,
    varmodel: VariationModel,
    target_delay: Optional[float] = None,
    config: Optional[OptimizerConfig] = None,
    timing_config: Optional[TimingConfig] = None,
) -> OptimizationResult:
    """Run the paper's statistical flow end to end.

    When ``target_delay`` is omitted it defaults to ``config.delay_margin``
    times the *corner* minimum delay — the same reference the deterministic
    baseline uses, so the two flows are compared at an identical
    constraint (the paper's protocol).
    """
    config = config or OptimizerConfig()
    tele = get_telemetry()
    t0 = time.perf_counter()
    circuit.freeze()
    with tele.span("opt.flow", flow="statistical", circuit=circuit.name):
        with tele.span("opt.setup", flow="statistical"):
            view = TimingView(
                circuit,
                timing_config
                or TimingConfig(derate_rdf_with_size=config.derate_rdf_with_size),
            )
            corner = slow_corner(spec, config.corner_sigma)

            circuit.set_uniform(
                size=view.library.sizes[0], vth=VthClass.LOW, length_bias=0.0
            )
            with tele.span("opt.initial_sizing", flow="statistical"):
                dmin = minimize_delay(view, corner=corner)
            if target_delay is None:
                target_delay = config.delay_margin * dmin

            models = metric_models(circuit, varmodel)
            initial = circuit.assignment()
        before = snapshot_metrics(view, models, target_delay, corner, config)

        strategy = StatisticalStrategy(
            view, varmodel, target_delay, config, models.leakage, models.lognormal_sum
        )
        records, applied = run_phased(view, strategy, config, models.leakage)

        after = snapshot_metrics(view, models, target_delay, corner, config)
    return OptimizationResult(
        optimizer=strategy.name,
        circuit_name=circuit.name,
        target_delay=target_delay,
        min_delay=dmin,
        before=before,
        after=after,
        initial_assignment=initial,
        final_assignment=circuit.assignment(),
        passes=tuple(records),
        moves_applied=applied,
        runtime_seconds=time.perf_counter() - t0,
    )
