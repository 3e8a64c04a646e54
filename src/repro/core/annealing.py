"""Simulated-annealing cross-check optimizer.

The greedy engine is fast but myopic; this module provides the classical
antidote as a *verification tool*: Metropolis annealing over the same
(size, Vth) state space with the same statistical objective and a smooth
yield-violation barrier.  On small circuits it explores enough of the
space to confirm (or indict) the greedy solutions — the ablation harness
uses it exactly that way.  It is not the production path: SSTA per
proposal makes it ~100x slower than the greedy flow.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..circuit.netlist import Circuit, GateAssignment
from ..errors import OptimizationError
from ..power.statistical import analyze_statistical_leakage
from ..tech.corners import slow_corner
from ..tech.technology import VthClass
from ..telemetry import get_telemetry
from ..timing.graph import TimingConfig, TimingView
from ..timing.ssta import run_ssta
from ..variation.model import VariationModel
from ..variation.parameters import VariationSpec
from .config import OptimizerConfig
from .metrics import metric_models, snapshot_metrics
from .result import OptimizationResult
from .sizing import minimize_delay


@dataclass(frozen=True)
class AnnealConfig:
    """Annealing schedule knobs.

    ``steps`` proposals are evaluated over a geometric temperature decay
    from ``t_start`` to ``t_end`` (both relative to the initial objective
    value, so the schedule is scale-free).  ``barrier_weight`` multiplies
    the smooth yield-violation penalty ``max(0, eta - yield)``.
    """

    steps: int = 3000
    t_start: float = 0.10
    t_end: float = 1e-4
    barrier_weight: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise OptimizationError(f"steps must be >= 1, got {self.steps}")
        if not 0 < self.t_end <= self.t_start:
            raise OptimizationError("need 0 < t_end <= t_start")
        if self.barrier_weight <= 0:
            raise OptimizationError("barrier_weight must be positive")


def optimize_annealing(
    circuit: Circuit,
    spec: VariationSpec,
    varmodel: VariationModel,
    target_delay: Optional[float] = None,
    config: Optional[OptimizerConfig] = None,
    anneal: Optional[AnnealConfig] = None,
    timing_config: Optional[TimingConfig] = None,
    initial: Optional[GateAssignment] = None,
) -> OptimizationResult:
    """Anneal the statistical objective under the yield constraint.

    Same contract as :func:`repro.core.optimize_statistical`; the final
    state is guaranteed feasible (the incumbent tracks the best *feasible*
    visit, and the starting state is feasible by construction).

    ``initial`` warm-starts the annealer from a given implementation
    snapshot (typically a greedy solution) instead of the min-delay-sized
    state — the refinement mode the A3 cross-check experiment uses.
    """
    config = config or OptimizerConfig()
    anneal = anneal or AnnealConfig()
    t0 = time.perf_counter()
    circuit.freeze()
    view = TimingView(
        circuit,
        timing_config
        or TimingConfig(derate_rdf_with_size=config.derate_rdf_with_size),
    )
    corner = slow_corner(spec, config.corner_sigma)
    circuit.set_uniform(size=view.library.sizes[0], vth=VthClass.LOW, length_bias=0.0)
    dmin = minimize_delay(view, corner=corner)
    if target_delay is None:
        target_delay = config.delay_margin * dmin
    if initial is not None:
        circuit.apply_assignment(initial)

    models = metric_models(circuit, varmodel)
    initial = circuit.assignment()
    before = snapshot_metrics(view, models, target_delay, corner, config)

    rng = np.random.default_rng(anneal.seed)
    sizes = view.library.sizes

    def evaluate() -> tuple[float, float, float]:
        """(cost, objective, yield) at the current circuit state."""
        stat = analyze_statistical_leakage(
            circuit, varmodel,
            derate_rdf_with_size=config.derate_rdf_with_size,
            nominal_currents=models.leakage.currents(),
            lognormal_sum=models.lognormal_sum,
        )
        objective = stat.high_confidence_power(config.confidence_k)
        ssta = run_ssta(view, varmodel)
        y = ssta.timing_yield(target_delay)
        violation = max(0.0, config.yield_target - y)
        cost = objective * (1.0 + anneal.barrier_weight * violation)
        return cost, objective, y

    cost, objective, y = evaluate()
    if y < config.yield_target:
        raise OptimizationError(
            f"{circuit.name}: initial sized state misses yield "
            f"{config.yield_target} at Tmax={target_delay:.3e}"
        )
    scale = cost  # temperature is relative to the starting cost
    best_cost = cost
    best_assignment = circuit.assignment()
    accepted = 0

    decay = (anneal.t_end / anneal.t_start) ** (1.0 / max(anneal.steps - 1, 1))
    temperature = anneal.t_start
    gates = view.gates
    tele = get_telemetry()
    proposals_counter = tele.counter("opt_anneal_proposals_total")
    accepted_counter = tele.counter("opt_anneal_accepted_total")
    with tele.span(
        "opt.flow", flow="annealing", circuit=circuit.name, steps=anneal.steps
    ):
        for _ in range(anneal.steps):
            idx = int(rng.integers(len(gates)))
            gate = gates[idx]
            old_state = (gate.size, gate.vth)
            if rng.random() < 0.5 and config.enable_vth:
                gate.vth = gate.vth.other()
            elif config.enable_sizing:
                neighbors = []
                up = view.library.next_size_up(gate.size)
                down = view.library.next_size_down(gate.size)
                neighbors = [s for s in (up, down) if s is not None]
                if not neighbors:
                    continue
                gate.size = neighbors[int(rng.integers(len(neighbors)))]
            else:
                continue

            proposals_counter.inc()
            new_cost, new_objective, new_y = evaluate()
            delta = (new_cost - cost) / (scale * temperature)
            if delta <= 0 or rng.random() < math.exp(-min(delta, 50.0)):
                cost, objective, y = new_cost, new_objective, new_y
                accepted += 1
                accepted_counter.inc()
                if y >= config.yield_target and new_cost < best_cost:
                    best_cost = new_cost
                    best_assignment = circuit.assignment()
            else:
                gate.size, gate.vth = old_state
            temperature *= decay

    circuit.apply_assignment(best_assignment)
    after = snapshot_metrics(view, models, target_delay, corner, config)
    return OptimizationResult(
        optimizer="annealing",
        circuit_name=circuit.name,
        target_delay=target_delay,
        min_delay=dmin,
        before=before,
        after=after,
        initial_assignment=initial,
        final_assignment=circuit.assignment(),
        passes=(),
        moves_applied=accepted,
        runtime_seconds=time.perf_counter() - t0,
    )
