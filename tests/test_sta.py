"""Deterministic STA: arrivals, slacks, critical paths, corners."""

import numpy as np
import pytest

from repro.circuit import Circuit
from repro.errors import TimingError
from repro.tech import VthClass, slow_corner, typical_corner
from repro.timing import TimingConfig, TimingView, corner_delay_factor, run_sta


@pytest.fixture
def chain(lib):
    c = Circuit("chain", lib)
    c.add_input("a")
    prev = "a"
    for i in range(5):
        c.add_gate(f"g{i}", "INV", [prev])
        prev = f"g{i}"
    c.add_output(prev)
    return c


class TestArrivals:
    def test_chain_delay_is_sum_of_gate_delays(self, chain):
        view = TimingView(chain)
        sta = run_sta(view)
        assert sta.circuit_delay == pytest.approx(sta.gate_delays.sum())

    def test_arrivals_monotone_along_chain(self, chain):
        sta = run_sta(chain)
        assert np.all(np.diff(sta.arrivals) > 0)

    def test_parallel_paths_take_max(self, lib):
        c = Circuit("y", lib)
        c.add_input("a")
        c.add_gate("fast", "INV", ["a"])
        c.add_gate("slow1", "INV", ["a"])
        c.add_gate("slow2", "INV", ["slow1"])
        c.add_gate("join", "NAND2", ["fast", "slow2"])
        c.add_output("join")
        view = TimingView(c)
        sta = run_sta(view)
        i_join = c.gate_index("join")
        i_slow2 = c.gate_index("slow2")
        assert sta.arrivals[i_join] == pytest.approx(
            sta.arrivals[i_slow2] + sta.gate_delays[i_join]
        )

    def test_critical_path_ends_at_worst_output(self, c432):
        sta = run_sta(c432)
        last = sta.critical_path[-1]
        assert last in c432.outputs or not c432.fanout_of(last)
        # Path is connected and topologically ordered.
        for up, down in zip(sta.critical_path, sta.critical_path[1:]):
            assert up in c432.gate(down).fanins


class TestSlacks:
    def test_default_target_zero_worst_slack(self, c432):
        sta = run_sta(c432)
        assert sta.worst_slack == pytest.approx(0.0, abs=1e-18)
        assert sta.meets_target

    def test_relaxed_target_positive_slack(self, c432):
        base = run_sta(c432)
        relaxed = run_sta(c432, target_delay=1.2 * base.circuit_delay)
        assert relaxed.worst_slack > 0
        assert relaxed.meets_target

    def test_critical_path_gates_have_min_slack(self, c432):
        sta = run_sta(c432)
        for name in sta.critical_path:
            assert sta.slacks[c432.gate_index(name)] == pytest.approx(
                0.0, abs=1e-16
            )

    def test_infeasible_target_detected(self, c432):
        base = run_sta(c432)
        tight = run_sta(c432, target_delay=0.5 * base.circuit_delay)
        assert not tight.meets_target
        assert tight.worst_slack < 0

    def test_invalid_target_rejected(self, c432):
        with pytest.raises(TimingError):
            run_sta(c432, target_delay=-1.0)

    def test_slacks_built_once_and_read_only(self, c432):
        base = run_sta(c432)
        sta = run_sta(c432, target_delay=1.1 * base.circuit_delay)
        slacks = sta.slacks
        assert np.array_equal(slacks, sta.required - sta.arrivals)
        assert sta.slacks is slacks
        with pytest.raises(ValueError):
            slacks[0] = 0.0


class TestImplementationSensitivity:
    def test_high_vth_slows_circuit(self, c432):
        nominal = run_sta(c432).circuit_delay
        c432.set_uniform(vth=VthClass.HIGH)
        slowed = run_sta(c432).circuit_delay
        assert slowed > nominal * 1.1

    def test_view_reads_live_state(self, c432):
        view = TimingView(c432)
        before = run_sta(view).circuit_delay
        c432.set_uniform(vth=VthClass.HIGH)
        after = run_sta(view).circuit_delay
        assert after > before


class TestCorners:
    def test_slow_corner_slows(self, c432, spec):
        nominal = run_sta(c432).circuit_delay
        cornered = run_sta(c432, corner=slow_corner(spec)).circuit_delay
        assert cornered > nominal * 1.1

    def test_typical_corner_is_nominal(self, c432):
        assert run_sta(c432, corner=typical_corner()).circuit_delay == pytest.approx(
            run_sta(c432).circuit_delay
        )

    def test_corner_factor_uniform_per_class(self, c432, spec):
        view = TimingView(c432)
        factors = corner_delay_factor(view, slow_corner(spec))
        assert all(f > 1.0 for f in factors.values())


class TestLoads:
    def test_po_load_config(self, c432):
        light = run_sta(c432, config=TimingConfig(primary_output_load=1.0))
        heavy = run_sta(c432, config=TimingConfig(primary_output_load=16.0))
        assert heavy.circuit_delay > light.circuit_delay

    def test_load_includes_fanout_wire_cap(self, lib, chain):
        view = TimingView(chain)
        idx = chain.gate_index("g0")
        load = view.load_cap_of(idx)
        consumer = view.cells[chain.gate_index("g1")]
        expected = consumer.input_cap(1.0) + lib.tech.wire_cap_per_fanout
        assert load == pytest.approx(expected)
