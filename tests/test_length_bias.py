"""Gate-length biasing: physics, moves, and optimizer integration."""

import pytest

from repro.analysis import prepare
from repro.core import OptimizerConfig, optimize_statistical
from repro.core.moves import Move, apply_move, candidate_moves, leakage_gain, own_delay_cost, revert_move
from repro.errors import OptimizationError
from repro.power import (
    GateLeakage,
    analyze_leakage,
    pin_probabilities,
)
from repro.timing import TimingView, run_sta


class TestPhysics:
    def test_bias_slows_and_saves(self, c17):
        d0 = run_sta(c17).circuit_delay
        l0 = analyze_leakage(c17).total_power
        c17.set_uniform(length_bias=8e-9)
        d1 = run_sta(c17).circuit_delay
        l1 = analyze_leakage(c17).total_power
        # ~10% slower buys ~30% less leakage at +8 nm on ptm100.
        assert 1.05 < d1 / d0 < 1.15
        assert 0.6 < l1 / l0 < 0.8

    def test_leakage_exponential_in_bias(self, c17):
        import math

        l0 = analyze_leakage(c17).total_power
        c17.set_uniform(length_bias=4e-9)
        l4 = analyze_leakage(c17).total_power
        c17.set_uniform(length_bias=8e-9)
        l8 = analyze_leakage(c17).total_power
        # Exponential: equal steps give equal ratios.
        assert l4 / l0 == pytest.approx(l8 / l4, rel=1e-6)

    def test_snapshot_round_trip(self, c17):
        c17.set_uniform(length_bias=6e-9)
        snap = c17.assignment()
        c17.set_uniform(length_bias=0.0)
        c17.apply_assignment(snap)
        assert all(g.length_bias == pytest.approx(6e-9) for g in c17.gates())

    def test_legacy_snapshot_clears_bias(self, c17):
        from repro.circuit import GateAssignment
        from repro.tech import VthClass

        legacy = GateAssignment(
            sizes=(1.0,) * c17.n_gates, vths=(VthClass.LOW,) * c17.n_gates
        )
        c17.set_uniform(length_bias=4e-9)
        c17.apply_assignment(legacy)
        assert all(g.length_bias == 0.0 for g in c17.gates())


class TestMoves:
    def test_candidates_respect_cap(self, c17):
        view = TimingView(c17)
        c17.set_uniform(length_bias=8e-9)
        moves = list(
            candidate_moves(view, False, False, True, lbias_step=2e-9, lbias_max=8e-9)
        )
        assert moves == []  # at the cap: no further biasing

    def test_move_apply_revert(self, c17):
        view = TimingView(c17)
        move = Move(index=0, kind="lbias", new_lbias=2e-9)
        old = apply_move(view, move)
        assert view.gates[0].length_bias == pytest.approx(2e-9)
        revert_move(view, move, old)
        assert view.gates[0].length_bias == 0.0

    def test_cost_positive_gain_positive(self, c17):
        view = TimingView(c17)
        move = Move(index=0, kind="lbias", new_lbias=4e-9)
        assert own_delay_cost(view, move, view.load_cap_of(0)) > 0
        assert leakage_gain(view, move, GateLeakage(c17, pin_probabilities(c17))) > 0


class TestOptimizer:
    def test_lbias_improves_statistical_flow(self):
        base_setup = prepare("c432")
        base = optimize_statistical(
            base_setup.circuit, base_setup.spec, base_setup.varmodel,
            config=OptimizerConfig(),
        )
        lb_setup = prepare("c432")
        with_bias = optimize_statistical(
            lb_setup.circuit, lb_setup.spec, lb_setup.varmodel,
            target_delay=base.target_delay,
            config=OptimizerConfig(enable_lbias=True),
        )
        assert with_bias.after.hc_leakage < base.after.hc_leakage
        assert with_bias.after.timing_yield >= 0.95 - 1e-6
        assert any(g.length_bias > 0 for g in lb_setup.circuit.gates())

    def test_config_validation(self):
        with pytest.raises(OptimizationError):
            OptimizerConfig(enable_lbias=True, lbias_step=0.0)
        with pytest.raises(OptimizationError):
            OptimizerConfig(enable_lbias=True, lbias_step=5e-9, lbias_max=2e-9)

    def test_lbias_only_flow(self):
        setup = prepare("c17")
        result = optimize_statistical(
            setup.circuit, setup.spec, setup.varmodel,
            config=OptimizerConfig(
                enable_vth=False, enable_sizing=False, enable_lbias=True
            ),
        )
        assert result.after.mean_leakage < result.before.mean_leakage
        # Only biases changed.
        assert result.initial_assignment.vths == result.final_assignment.vths
        assert result.initial_assignment.sizes == result.final_assignment.sizes
