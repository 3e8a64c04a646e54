"""Deterministic leakage analysis."""

import numpy as np
import pytest

from repro.power import (
    analyze_leakage,
    gate_input_probabilities,
    gate_leakage_currents,
    leakage_by_vth_class,
    signal_probabilities,
)
from repro.tech import VthClass, fast_corner, slow_corner

from .moves_reference import GateLeakageMemo


class TestGateCurrents:
    def test_positive_everywhere(self, c432):
        currents = gate_leakage_currents(c432)
        assert currents.shape == (c432.n_gates,)
        assert np.all(currents > 0)

    def test_matches_cell_tables(self, c17):
        probs = signal_probabilities(c17)
        currents = gate_leakage_currents(c17, probs)
        for gate in c17.indexed_gates():
            cell = c17.cell_of(gate)
            expected = cell.mean_leakage(
                gate.size, gate.vth, [probs[f] for f in gate.fanins]
            )
            assert currents[c17.gate_index(gate.name)] == pytest.approx(expected)

    def test_all_high_vth_cuts_total(self, c432):
        low = gate_leakage_currents(c432).sum()
        c432.set_uniform(vth=VthClass.HIGH)
        high = gate_leakage_currents(c432).sum()
        assert high < low / 10

    def test_size_scales_leakage(self, c432):
        base = gate_leakage_currents(c432).sum()
        c432.set_uniform(size=2.0)
        doubled = gate_leakage_currents(c432).sum()
        assert doubled == pytest.approx(2 * base, rel=1e-9)


class TestGateLeakageMemo:
    """The dict memo the candidate-scoring oracle reads its gains from."""

    def test_matches_fresh_currents_bitwise_across_states(self, c432):
        probs = signal_probabilities(c432)
        memo = GateLeakageMemo(c432, gate_input_probabilities(c432, probs))
        rng = np.random.default_rng(5)
        gates = c432.indexed_gates()
        for _ in range(4):
            for gate in gates:
                gate.size = float(rng.choice(c432.library.sizes[:3]))
                gate.vth = VthClass.HIGH if rng.random() < 0.5 else VthClass.LOW
                gate.length_bias = float(rng.choice([0.0, 2e-9]))
            fresh = gate_leakage_currents(c432, probs)
            assert memo.currents().tobytes() == fresh.tobytes()
            assert memo.current(3) == fresh[3]

    def test_memos_do_not_share_state(self, c17):
        probs = gate_input_probabilities(c17, signal_probabilities(c17))
        first, second = GateLeakageMemo(c17, probs), GateLeakageMemo(c17, {})
        first.currents()
        with pytest.raises(KeyError):  # nothing cached for the second
            second.current(0)


class TestCorners:
    def test_fast_corner_leaks_more(self, c432, spec):
        nominal = analyze_leakage(c432).total_power
        fast = analyze_leakage(c432, corner=fast_corner(spec)).total_power
        slow = analyze_leakage(c432, corner=slow_corner(spec)).total_power
        assert fast > nominal * 3
        assert slow < nominal / 3

    def test_corner_factor_uniform(self, c432, spec):
        nominal = gate_leakage_currents(c432)
        fast = gate_leakage_currents(c432, corner=fast_corner(spec))
        ratios = fast / nominal
        assert np.allclose(ratios, ratios[0], rtol=1e-9)


class TestBreakdown:
    def test_total_power_is_current_times_vdd(self, c432, lib):
        breakdown = analyze_leakage(c432)
        assert breakdown.total_power == pytest.approx(
            breakdown.total_current * lib.tech.vdd
        )

    def test_by_vth_class_partitions_total(self, c432):
        # Mix the flavours, then check the split sums to the total.
        for i, gate in enumerate(c432.gates()):
            if i % 3 == 0:
                gate.vth = VthClass.HIGH
        breakdown = analyze_leakage(c432)
        split = leakage_by_vth_class(c432, breakdown)
        assert split["low"] + split["high"] == pytest.approx(breakdown.total_power)
        assert split["high"] > 0
