"""Deterministic dual-Vth + sizing baseline (the flow the paper improves).

The classical recipe:

1. all gates low-Vth, TILOS sizing for minimum delay **at the slow
   corner** (every device simultaneously ``n sigma`` slow — the corner
   abstraction);
2. greedy leakage recovery: swap gates to high-Vth / downsize, ranked by
   nominal-leakage gain per corner-slack consumed, keeping the corner
   delay within ``Tmax``.

Its two structural blind spots are exactly the paper's target: the corner
double-counts intra-die variation (all-devices-slow never happens on a
real die), and the nominal-leakage objective ignores that the leakage
*distribution's* mean and tail react differently to each move.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..power.leakage import GateLeakage
from ..tech.corners import ProcessCorner, slow_corner
from ..tech.technology import VthClass
from ..telemetry import get_telemetry
from ..timing.graph import TimingConfig, TimingView
from ..timing.incremental import IncrementalSTA
from ..timing.sta import STAResult, run_sta
from ..variation.model import VariationModel
from ..variation.parameters import VariationSpec
from .config import OptimizerConfig
from .engine import ConstraintStrategy, run_phased
from .metrics import metric_models, snapshot_metrics
from .moves import Move
from .result import OptimizationResult
from .sizing import minimize_delay


@dataclass
class _DetState:
    sta: STAResult


class DeterministicStrategy(ConstraintStrategy):
    """Corner-delay constraint + nominal-leakage objective.

    ``leakage`` gives the nominal gate currents the objective sums (the
    flow's :class:`~repro.power.leakage.GateLeakage`).
    """

    name = "deterministic"

    def __init__(
        self,
        view: TimingView,
        corner: ProcessCorner,
        target_delay: float,
        leakage: GateLeakage,
        config: OptimizerConfig,
    ) -> None:
        self.view = view
        self.corner = corner
        self.target_delay = target_delay
        self.leakage = leakage
        self.config = config
        # Corner delays exceed nominal by a per-Vth-class factor; the local
        # filter compares a *nominal* delay cost against *corner* slack, so
        # scale costs up by the worst class factor for safety.
        from ..timing.sta import corner_delay_factor

        self._corner_factor = max(corner_delay_factor(view, corner).values())
        self._incremental: IncrementalSTA | None = None

    def _tracker(self) -> IncrementalSTA:
        if self._incremental is None:
            self._incremental = IncrementalSTA(self.view, self.corner)
        return self._incremental

    def analyze(self) -> _DetState:
        return _DetState(
            sta=run_sta(self.view, target_delay=self.target_delay, corner=self.corner)
        )

    def is_feasible(self) -> bool:
        # Event-driven incremental STA: the engine notifies this strategy
        # of every applied/reverted move, so feasibility costs only the
        # changed cone rather than a full O(V+E) pass.
        return self._tracker().circuit_delay() <= self.target_delay * (1.0 + 1e-12)

    def on_move_applied(self, move: Move) -> None:
        self._tracker().notify(move.index, size_changed=move.kind == "size")

    def on_move_reverted(self, move: Move) -> None:
        self._tracker().notify(move.index, size_changed=move.kind == "size")

    def objective(self) -> float:
        return float(self.leakage.currents().sum())

    def move_costs(
        self, state: _DetState, index: np.ndarray, delay_cost: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        slack = state.sta.slacks[index]
        allowed = delay_cost * self._corner_factor <= slack * self.config.slack_safety
        # Moves that eat a large fraction of their gate's corner slack are
        # expensive; slack-rich gates are nearly free.
        slack = np.maximum(slack[allowed], 1e-15)
        return allowed, delay_cost[allowed] * self._corner_factor / slack


def optimize_deterministic(
    circuit: Circuit,
    spec: VariationSpec,
    varmodel: VariationModel,
    target_delay: Optional[float] = None,
    config: Optional[OptimizerConfig] = None,
    timing_config: Optional[TimingConfig] = None,
) -> OptimizationResult:
    """Run the deterministic baseline flow end to end.

    ``varmodel`` is used only for *reporting* the statistical metrics of
    the deterministic solution (the flow itself never sees statistics).
    When ``target_delay`` is omitted it defaults to
    ``config.delay_margin x`` the corner minimum delay.
    """
    config = config or OptimizerConfig()
    tele = get_telemetry()
    t0 = time.perf_counter()
    circuit.freeze()
    with tele.span("opt.flow", flow="deterministic", circuit=circuit.name):
        view = TimingView(
            circuit,
            timing_config
            or TimingConfig(derate_rdf_with_size=config.derate_rdf_with_size),
        )
        corner = slow_corner(spec, config.corner_sigma)

        circuit.set_uniform(
            size=view.library.sizes[0], vth=VthClass.LOW, length_bias=0.0
        )
        with tele.span("opt.initial_sizing", flow="deterministic"):
            dmin = minimize_delay(view, corner=corner)
        if target_delay is None:
            target_delay = config.delay_margin * dmin

        models = metric_models(circuit, varmodel)
        initial = circuit.assignment()
        before = snapshot_metrics(view, models, target_delay, corner, config)

        leakage = models.leakage
        strategy = DeterministicStrategy(view, corner, target_delay, leakage, config)
        records, applied = run_phased(view, strategy, config, leakage)

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
