"""The benchmark's workloads: seeded inputs, the timed operation, checks.

A workload turns ``--seed`` into a fixed list of *cases*.  One *round*
runs every case once; each case rebuilds its circuit from the seed
outside the timed region, so no state carries over from one operation to
the next, and every round repeats the same work exactly.

* ``optimize`` -- the paper's flow, ``optimize_statistical`` with the
  default configuration (what ``repro optimize --flow statistical``
  runs), on seeded clones of the c432 profile.  Every layer runs: initial
  sizing, SSTA, the leakage objective, candidate scoring and
  validate/rollback.
* ``analyze`` -- one-shot statistical analysis (what ``repro analyze``
  computes: STA, SSTA, timing yield, statistical leakage) of seeded clones
  of the c3540 profile at seeded random Vth/size states.  The timing and
  leakage kernels run at ten times the gate count, and the greedy loop
  (candidate scoring, validate/rollback) does not run at all.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.circuit.benchmarks import benchmark_spec, make_benchmark
from repro.circuit.generators import random_logic
from repro.circuit.netlist import Circuit, GateAssignment
from repro.circuit.placement import build_variation_model
from repro.core.config import OptimizerConfig
from repro.core.statistical import optimize_statistical
from repro.power.mc import run_monte_carlo_leakage
from repro.power.statistical import analyze_statistical_leakage
from repro.tech.library import Library, default_library
from repro.tech.technology import VthClass
from repro.timing.graph import TimingView
from repro.timing.mc import run_monte_carlo_sta
from repro.timing.ssta import run_ssta
from repro.timing.sta import run_sta
from repro.variation.model import VariationModel
from repro.variation.parameters import VariationSpec, default_variation

#: Monte-Carlo dies per reference check, and the tolerances that check
#: allows.  At 2000 dies the sampling error of a ~0.95 yield is ~0.005 and
#: that of a delay mean or percentile ~0.1%, so the tolerances leave room
#: for the Clark and Wilkinson approximations while still catching a broken
#: kernel.
MC_SAMPLES = 2000
YIELD_TOL = 0.05
DELAY_RTOL = 0.02
SIGMA_DELAY_RTOL = 0.15
MEAN_LEAKAGE_RTOL = 0.03


class CheckError(Exception):
    """An operation's output failed a correctness check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass
class Inputs:
    """Everything one timed operation reads, built outside the timer."""

    circuit: Circuit
    spec: VariationSpec
    varmodel: VariationModel


def _clone(library: Library, profile: str, seed: int) -> Circuit:
    """A random-logic circuit with an ISCAS85 circuit's published profile."""
    p = benchmark_spec(profile)
    return random_logic(
        library, name=f"{profile}_s{seed}", n_inputs=p.n_inputs,
        n_outputs=p.n_outputs, n_gates=p.n_gates, depth=p.depth, seed=seed,
    )


def _inputs(library: Library, circuit: Circuit) -> Inputs:
    spec = default_variation(library.tech.lnom)
    return Inputs(circuit, spec, build_variation_model(circuit, spec))


class Workload:
    """One benchmark workload (see the module docstring)."""

    name: str

    def __init__(self, seed: int) -> None:
        self.library = default_library("ptm100")
        self.rng = random.Random(f"{self.name}:{seed}")

    def cases(self) -> List[Tuple]:
        """The round: a fixed list of case descriptors."""
        raise NotImplementedError

    def setup_cases(self) -> List[Tuple]:
        """Cases whose inputs a set-up builds: one per distinct circuit."""
        return self.cases()

    def build(self, case: Tuple) -> Inputs:
        """Fresh inputs for one case (untimed)."""
        raise NotImplementedError

    def run(self, inputs: Inputs) -> object:
        """The timed operation."""
        raise NotImplementedError

    def check(self, inputs: Inputs, output: object) -> Tuple:
        """Raise :class:`CheckError` on a wrong output; return a digest that
        must repeat exactly when the case runs again."""
        raise NotImplementedError

    def reference_check(self, case: Tuple, output: object) -> None:
        """Compare the output with Monte-Carlo ground truth (untimed)."""
        raise NotImplementedError

    def move_counts(self, output: object) -> Tuple[int, int, int]:
        """Moves (scored, kept, reverted) by the operation."""
        return (0, 0, 0)

    def warm_up(self) -> None:
        """Run the operation once on c17 so lazy imports happen untimed."""
        self.run(_inputs(self.library, make_benchmark("c17", self.library)))


class OptimizeWorkload(Workload):
    name = "optimize"
    profile = "c432"
    n_cases = 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.config = OptimizerConfig()
        self._cases = [(self.rng.randrange(2**31),) for _ in range(self.n_cases)]

    def cases(self) -> List[Tuple]:
        return self._cases

    def build(self, case: Tuple) -> Inputs:
        return _inputs(self.library, _clone(self.library, self.profile, case[0]))

    def run(self, inputs: Inputs) -> object:
        return optimize_statistical(
            inputs.circuit, inputs.spec, inputs.varmodel, config=self.config
        )

    def check(self, inputs: Inputs, output: object) -> Tuple:
        result = output
        before, after = result.before, result.after
        eta = self.config.yield_target
        _require(after.timing_yield >= eta - 1e-12,
                 f"final yield {after.timing_yield:.6f} below target {eta}")
        _require(after.hc_leakage <= before.hc_leakage,
                 "objective (mean + k sigma leakage) got worse")
        _require(after.mean_leakage < before.mean_leakage,
                 "no mean-leakage saving")
        _require(result.moves_applied > 0, "no move kept")
        _require(inputs.circuit.assignment() == result.final_assignment,
                 "circuit state differs from the reported final assignment")
        fresh = run_ssta(inputs.circuit, inputs.varmodel)
        _require(
            math.isclose(fresh.timing_yield(result.target_delay),
                         after.timing_yield, rel_tol=1e-9, abs_tol=1e-12),
            "reported yield differs from a fresh SSTA of the final state",
        )
        return (result.final_assignment, result.target_delay, after)

    def reference_check(self, case: Tuple, output: object) -> None:
        result = output
        inputs = self.build(case)
        inputs.circuit.apply_assignment(result.final_assignment)
        mc = run_monte_carlo_sta(
            inputs.circuit, inputs.varmodel, n_samples=MC_SAMPLES, seed=1,
            keep_samples=False,
        )
        mc_yield = mc.timing_yield(result.target_delay)
        _require(abs(mc_yield - result.after.timing_yield) <= YIELD_TOL,
                 f"SSTA yield {result.after.timing_yield:.4f} vs "
                 f"Monte-Carlo {mc_yield:.4f}")
        _check_leakage(inputs, result.after.mean_leakage)

    def move_counts(self, output: object) -> Tuple[int, int, int]:
        passes = output.passes
        return (
            sum(p.candidates for p in passes),
            sum(p.applied for p in passes),
            sum(p.reverted for p in passes),
        )


class AnalyzeWorkload(Workload):
    name = "analyze"
    profile = "c3540"
    n_circuits = 4
    n_states = 8
    #: Yield is read at this multiple of the nominal STA delay.
    target_factor = 1.05

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        circuit_seeds = [self.rng.randrange(2**31) for _ in range(self.n_circuits)]
        self._cases = [
            (circuit_seed, self.rng.randrange(2**31))
            for circuit_seed in circuit_seeds
            for _ in range(self.n_states)
        ]

    def cases(self) -> List[Tuple]:
        return self._cases

    def setup_cases(self) -> List[Tuple]:
        return self._cases[:: self.n_states]

    def build(self, case: Tuple) -> Inputs:
        circuit_seed, state_seed = case
        circuit = _clone(self.library, self.profile, circuit_seed)
        rng = np.random.default_rng(state_seed)
        n = circuit.n_gates
        sizes = rng.choice(np.asarray(self.library.sizes), size=n)
        high = rng.random(n) < 0.5
        circuit.apply_assignment(GateAssignment(
            sizes=tuple(float(s) for s in sizes),
            vths=tuple(VthClass.HIGH if h else VthClass.LOW for h in high),
        ))
        return _inputs(self.library, circuit)

    def run(self, inputs: Inputs) -> object:
        view = TimingView(inputs.circuit)
        sta = run_sta(view)
        ssta = run_ssta(view, inputs.varmodel)
        target = self.target_factor * sta.circuit_delay
        leakage = analyze_statistical_leakage(inputs.circuit, inputs.varmodel)
        return {
            "sta_delay": sta.circuit_delay,
            "target": target,
            "mean_delay": ssta.circuit_delay.mean,
            "sigma_delay": ssta.circuit_delay.sigma,
            "yield": ssta.timing_yield(target),
            "q95_delay": ssta.delay_at_yield(0.95),
            "max_criticality": float(ssta.criticality.max()),
            "min_criticality": float(ssta.criticality.min()),
            "nominal_leakage": leakage.nominal_power,
            "mean_leakage": leakage.mean_power,
            "p95_leakage": leakage.percentile_power(0.95),
        }

    def check(self, inputs: Inputs, output: object) -> Tuple:
        out: Dict[str, float] = output
        _require(all(math.isfinite(v) for v in out.values()),
                 f"non-finite figure in {out}")
        _require(0.0 <= out["yield"] <= 1.0, f"yield {out['yield']} outside [0, 1]")
        _require(out["sigma_delay"] > 0.0, "zero delay sigma")
        # E[max] >= max E: the statistical mean never undercuts nominal STA.
        _require(out["mean_delay"] >= out["sta_delay"] * (1.0 - 1e-12),
                 "SSTA mean delay below the nominal STA delay")
        _require(0.0 <= out["min_criticality"]
                 and out["max_criticality"] <= 1.0 + 1e-9,
                 "criticality outside [0, 1]")
        # Lognormal mean exceeds its median: variation only inflates leakage.
        _require(out["nominal_leakage"] < out["mean_leakage"] < out["p95_leakage"],
                 "leakage moments out of order")
        return tuple(sorted(out.items()))

    def reference_check(self, case: Tuple, output: object) -> None:
        out: Dict[str, float] = output
        inputs = self.build(case)
        mc = run_monte_carlo_sta(
            inputs.circuit, inputs.varmodel, n_samples=MC_SAMPLES, seed=1,
            keep_samples=False,
        )
        _require(math.isclose(mc.mean, out["mean_delay"], rel_tol=DELAY_RTOL),
                 f"SSTA mean delay {out['mean_delay']:.4e} vs Monte-Carlo "
                 f"{mc.mean:.4e}")
        _require(math.isclose(mc.std, out["sigma_delay"], rel_tol=SIGMA_DELAY_RTOL),
                 f"SSTA delay sigma {out['sigma_delay']:.4e} vs Monte-Carlo "
                 f"{mc.std:.4e}")
        mc_q95 = mc.percentile(0.95)
        _require(math.isclose(mc_q95, out["q95_delay"], rel_tol=DELAY_RTOL),
                 f"SSTA 95th-percentile delay {out['q95_delay']:.4e} vs "
                 f"Monte-Carlo {mc_q95:.4e}")
        _check_leakage(inputs, out["mean_leakage"])


def _check_leakage(inputs: Inputs, mean_leakage: float) -> None:
    mc = run_monte_carlo_leakage(
        inputs.circuit, inputs.varmodel, n_samples=MC_SAMPLES, seed=2,
        keep_samples=False,
    )
    _require(math.isclose(mc.mean_power, mean_leakage, rel_tol=MEAN_LEAKAGE_RTOL),
             f"analytic mean leakage {mean_leakage:.4e} vs Monte-Carlo "
             f"{mc.mean_power:.4e}")


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    OptimizeWorkload.name: OptimizeWorkload,
    AnalyzeWorkload.name: AnalyzeWorkload,
}
