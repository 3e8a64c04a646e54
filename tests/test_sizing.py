"""TILOS-flavoured min-delay sizing.

Initial sizing scores every near-critical upsize in one array pass;
``moves_reference`` keeps the per-gate loop it replaced, and the two
must give ``repr``-identical move lists (effects bit for bit, order) and
raise the same errors.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.circuit import Circuit, make_benchmark
from repro.core import minimize_delay, upsize_effect
from repro.core.sizing import _helpful_upsizes
from repro.errors import LibraryError, OptimizationError
from repro.tech import VthClass, slow_corner
from repro.timing import TimingView, run_sta

from . import moves_reference as ref


class TestUpsizeEffect:
    def test_heavily_loaded_gate_benefits(self, lib, c432):
        # A gate driving many consumers speeds up when upsized.
        view = TimingView(c432)
        fanouts = [(len(view.consumer_pins[i]), i) for i in range(view.n_gates)]
        _, idx = max(fanouts)
        effect = upsize_effect(view, idx, 2.0)
        assert effect < 0

    def test_effect_restores_state(self, c432):
        view = TimingView(c432)
        before = view.gates[0].size
        upsize_effect(view, 0, 4.0)
        assert view.gates[0].size == before

    def test_estimate_tracks_actual_delay_change(self, c432):
        view = TimingView(c432)
        sta = run_sta(view)
        # Pick a gate on the critical path and compare the local estimate
        # against the measured circuit-delay change.
        idx = c432.gate_index(sta.critical_path[len(sta.critical_path) // 2])
        est = upsize_effect(view, idx, 2.0)
        view.gates[idx].size = 2.0
        actual = run_sta(view).circuit_delay - sta.circuit_delay
        view.gates[idx].size = 1.0
        # The local estimate bounds the real change loosely; both should
        # agree in sign or be tiny.
        assert actual <= max(0.0, est) + 1e-13


class TestMinimizeDelay:
    def test_improves_or_holds_delay(self, c432):
        view = TimingView(c432)
        before = run_sta(view).circuit_delay
        dmin = minimize_delay(view)
        assert dmin <= before
        # Reported delay matches the circuit's actual state.
        assert run_sta(view).circuit_delay == pytest.approx(dmin, rel=1e-9)

    def test_meaningful_speedup_on_real_circuit(self, c432):
        view = TimingView(c432)
        before = run_sta(view).circuit_delay
        dmin = minimize_delay(view)
        assert dmin < 0.97 * before

    def test_sizes_stay_on_grid(self, lib, c432):
        view = TimingView(c432)
        minimize_delay(view)
        for gate in c432.gates():
            lib.size_index(gate.size)  # raises if off-grid

    def test_vth_untouched(self, c432):
        view = TimingView(c432)
        minimize_delay(view)
        assert all(g.vth is VthClass.LOW for g in c432.gates())

    def test_corner_sizing(self, c432, spec):
        view = TimingView(c432)
        corner = slow_corner(spec)
        dmin = minimize_delay(view, corner=corner)
        assert run_sta(view, corner=corner).circuit_delay == pytest.approx(
            dmin, rel=1e-9
        )
        # Corner delay exceeds the nominal delay of the same sizing.
        assert dmin > run_sta(view).circuit_delay

    def test_max_passes_validated(self, c432):
        view = TimingView(c432)
        with pytest.raises(OptimizationError):
            minimize_delay(view, max_passes=0)


LENGTH_BIASES = (0.0, 2e-9, 4e-9)


def _randomize(circuit, rng, off_grid=0.0, far=False):
    """Random grid sizes, Vth flavours and length biases; a fraction
    ``off_grid`` of the gates sits a hair off its grid size (within
    ``Library.size_index``'s tolerance) or, with ``far``, between two
    grid sizes."""
    sizes = circuit.library.sizes
    for gate in circuit.indexed_gates():
        k = int(rng.integers(len(sizes)))
        size = sizes[k]
        if rng.random() < off_grid and k + 1 < len(sizes):
            size = 0.5 * (size + sizes[k + 1]) if far else size * (1.0 + 1e-12)
        gate.size = size
        gate.vth = VthClass.HIGH if rng.random() < 0.5 else VthClass.LOW
        gate.length_bias = float(rng.choice(LENGTH_BIASES))


def _near_critical(view, rng):
    """An STA-shaped stand-in whose slacks put a random ~half of the
    gates inside the near-critical window."""
    slacks = np.where(rng.random(view.n_gates) < 0.5, 0.0, 1.0)
    return SimpleNamespace(circuit_delay=1.0, slacks=slacks)


def _assert_same_upsizes(view, sta):
    try:
        expected = ref.helpful_upsizes(view, sta)
    except LibraryError as error:
        with pytest.raises(LibraryError) as raised:
            _helpful_upsizes(view, sta)
        assert str(raised.value) == str(error)
        return None
    version = view.state.version
    actual = _helpful_upsizes(view, sta)
    assert repr(actual) == repr(expected)
    assert view.state.version == version  # scoring writes nothing
    return actual


class TestBatchedUpsizes:
    @pytest.mark.parametrize("name", ("c17", "c432", "c880"))
    def test_matches_the_per_gate_loop_at_random_states(self, lib, name):
        circuit = make_benchmark(name, lib)
        view = TimingView(circuit)
        rng = np.random.default_rng(len(name))
        lists = 0
        for step in range(12):
            _randomize(circuit, rng, off_grid=0.1 if step % 3 == 2 else 0.0)
            lists += bool(_assert_same_upsizes(view, run_sta(view)))
            lists += bool(_assert_same_upsizes(view, _near_critical(view, rng)))
        assert lists > 12

    def test_off_grid_sizes_raise_as_the_loop_does(self, lib, c432):
        view = TimingView(c432)
        rng = np.random.default_rng(3)
        for _ in range(6):
            _randomize(c432, rng, off_grid=0.05, far=True)
            sta = _near_critical(view, rng)
            with pytest.raises(LibraryError) as error:
                ref.helpful_upsizes(view, sta)
            with pytest.raises(LibraryError) as batch_error:
                _helpful_upsizes(view, sta)
            assert str(batch_error.value) == str(error.value)

    def test_top_of_the_grid_and_no_candidates(self, lib, c432):
        view = TimingView(c432)
        c432.set_uniform(size=lib.sizes[-1])
        assert _helpful_upsizes(view, _near_critical(view, np.random.default_rng(1))) == []
        nothing = SimpleNamespace(circuit_delay=1.0, slacks=np.ones(view.n_gates))
        assert _helpful_upsizes(view, nothing) == []

    def test_single_gate(self, lib):
        c = Circuit("one", lib)
        c.add_input("x")
        c.add_gate("o", "NAND2", ["x", "x"])
        c.add_output("o")
        view = TimingView(c)
        for size in lib.sizes:
            for bias in LENGTH_BIASES:
                c.set_uniform(size=size, length_bias=bias)
                _assert_same_upsizes(view, run_sta(view))

    @pytest.mark.parametrize("new_size", (2.0, 4.0, 16.0, 3.0 * (1.0 + 1e-12)))
    def test_upsize_effect_matches_the_loop(self, lib, c432, new_size):
        view = TimingView(c432)
        rng = np.random.default_rng(9)
        _randomize(c432, rng, off_grid=0.1)
        for index in range(0, c432.n_gates, 7):
            assert repr(upsize_effect(view, index, new_size)) == repr(
                ref.upsize_effect(view, index, new_size)
            )

    def test_minimize_delay_matches_the_loop(self, lib, c432, monkeypatch):
        import repro.core.sizing as sizing

        expected_view = TimingView(make_benchmark("c432", lib))
        monkeypatch.setattr(sizing, "_helpful_upsizes", ref.helpful_upsizes)
        expected = minimize_delay(expected_view)
        monkeypatch.undo()
        view = TimingView(c432)
        assert repr(minimize_delay(view)) == repr(expected)
        assert c432.assignment() == expected_view.circuit.assignment()
