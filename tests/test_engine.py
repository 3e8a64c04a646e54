"""Greedy engine mechanics with a scripted strategy."""

import pytest

from repro.core import GreedyEngine, OptimizerConfig
from repro.core.engine import ConstraintStrategy
from repro.errors import InfeasibleConstraintError, OptimizationError
from repro.power import GateLeakage, pin_probabilities
from repro.timing import TimingView, run_sta


class BudgetStrategy(ConstraintStrategy):
    """Feasible while nominal delay stays under a budget; objective is
    nominal leakage.  Exercises the engine without SSTA machinery."""

    name = "budget"

    def __init__(self, view, budget):
        self.view = view
        self.budget = budget
        self.analyze_calls = 0
        self.feasibility_calls = 0

    def analyze(self):
        self.analyze_calls += 1
        return run_sta(self.view, target_delay=self.budget)

    def is_feasible(self):
        self.feasibility_calls += 1
        return run_sta(self.view).circuit_delay <= self.budget

    def objective(self):
        from repro.power import gate_leakage_currents

        return float(gate_leakage_currents(self.view.circuit).sum())

    def move_costs(self, state, index, delay_cost):
        allowed = delay_cost <= state.slacks[index]
        return allowed, delay_cost[allowed]


@pytest.fixture
def view(c432):
    return TimingView(c432)


@pytest.fixture
def leakage(c432):
    return GateLeakage(c432, pin_probabilities(c432))


def test_infeasible_start_raises(view, leakage):
    base = run_sta(view).circuit_delay
    strategy = BudgetStrategy(view, 0.5 * base)
    engine = GreedyEngine(view, strategy, OptimizerConfig(), leakage)
    with pytest.raises(InfeasibleConstraintError):
        engine.run()


def test_reduces_objective_and_respects_budget(view, leakage):
    base = run_sta(view).circuit_delay
    budget = 1.3 * base
    strategy = BudgetStrategy(view, budget)
    engine = GreedyEngine(view, strategy, OptimizerConfig(), leakage)
    before = strategy.objective()
    records, applied = engine.run()
    after = strategy.objective()
    assert applied > 0
    assert after < before
    assert run_sta(view).circuit_delay <= budget * (1 + 1e-12)


def test_objective_monotone_across_passes(view, leakage):
    base = run_sta(view).circuit_delay
    strategy = BudgetStrategy(view, 1.2 * base)
    engine = GreedyEngine(view, strategy, OptimizerConfig(), leakage)
    records, _ = engine.run()
    objectives = [r.objective for r in records]
    assert all(a >= b - 1e-18 for a, b in zip(objectives, objectives[1:]))


def test_pass_records_are_consistent(view, leakage):
    base = run_sta(view).circuit_delay
    strategy = BudgetStrategy(view, 1.2 * base)
    engine = GreedyEngine(view, strategy, OptimizerConfig(min_chunk=4), leakage)
    records, applied = engine.run()
    assert sum(r.applied for r in records) == applied
    for r in records:
        assert r.candidates >= r.applied
        assert r.reverted >= 0


def test_tight_budget_yields_few_moves(view, leakage):
    base = run_sta(view).circuit_delay
    tight = BudgetStrategy(view, 1.001 * base)
    engine = GreedyEngine(view, tight, OptimizerConfig(), leakage)
    _, applied_tight = engine.run()

    # Rebuild at a looser budget on a fresh circuit state.
    view.circuit.set_uniform(size=1.0)
    from repro.tech import VthClass

    view.circuit.set_uniform(vth=VthClass.LOW)
    loose = BudgetStrategy(view, 1.5 * base)
    engine = GreedyEngine(view, loose, OptimizerConfig(), leakage)
    _, applied_loose = engine.run()
    assert applied_loose > applied_tight


def test_max_passes_bounds_work(view, leakage):
    base = run_sta(view).circuit_delay
    strategy = BudgetStrategy(view, 1.3 * base)
    engine = GreedyEngine(
        view, strategy, OptimizerConfig(max_passes=2), leakage
    )
    records, _ = engine.run()
    assert len(records) <= 2
