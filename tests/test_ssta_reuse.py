"""Reuse of a view's last SSTA, held bitwise to a fresh view's run.

``run_ssta`` on a :class:`TimingView` returns the view's previous result
without building rows while the state version and the variation model
are unchanged, and otherwise when the gate-delay canonical rows it
builds repeat bit for bit.  Every state below is analyzed on one
long-lived view and on a fresh view of the same circuit (a fresh view
always propagates); the two must agree in every bit, whether the
long-lived view's answer came from its slot or from a new propagation.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.circuit import build_variation_model, make_benchmark
from repro.core.moves import Move, apply_move, revert_move
from repro.errors import VariationError
from repro.tech import VthClass
from repro.telemetry import telemetry_session
from repro.timing import TimingView, run_ssta
from repro.timing.ssta import _same_bits
from repro.variation import VariationSpec

from .test_timing_kernels import assert_bitwise

LENGTH_BIASES = (0.0, 2e-9, 4e-9)


def assert_same_result(actual, expected) -> None:
    assert_bitwise(actual.arrivals.rows, expected.arrivals.rows)
    assert_bitwise(actual.gate_delay_means, expected.gate_delay_means)
    assert_bitwise(actual.circuit_delay.mean, expected.circuit_delay.mean)
    assert_bitwise(actual.circuit_delay.sens, expected.circuit_delay.sens)
    assert_bitwise(actual.circuit_delay.indep, expected.circuit_delay.indep)
    assert_bitwise(actual.criticality, expected.criticality)


def check_state(view, varmodel) -> None:
    """The long-lived view's run equals a fresh view's, bitwise."""
    assert_same_result(
        run_ssta(view, varmodel), run_ssta(TimingView(view.circuit), varmodel)
    )


def random_move(view, rng) -> Move:
    """A vth, size or length-bias move on a random gate (may be a no-op)."""
    index = int(rng.integers(view.n_gates))
    kind = ("vth", "size", "lbias")[int(rng.integers(3))]
    if kind == "vth":
        vth = VthClass.HIGH if rng.random() < 0.5 else VthClass.LOW
        return Move(index=index, kind="vth", new_vth=vth)
    if kind == "size":
        size = float(rng.choice(np.asarray(view.library.sizes)))
        return Move(index=index, kind="size", new_size=size)
    return Move(index=index, kind="lbias", new_lbias=float(rng.choice(LENGTH_BIASES)))


def walk(view, varmodel, seed: int, n_steps: int) -> int:
    """Apply, revert and restore states at random, checking every step.

    Steps: apply a random move; revert the last move (back to the state
    before it); re-analyze an unchanged state; restore an earlier
    snapshot with ``circuit.apply_assignment``.  Returns the number of
    runs the view answered from its slot.
    """
    rng = np.random.default_rng(seed)
    circuit = view.circuit
    snapshot = circuit.assignment()
    applied = []
    with telemetry_session() as tele:
        check_state(view, varmodel)
        for _ in range(n_steps):
            step = rng.random()
            if step < 0.5 or not applied:
                move = random_move(view, rng)
                applied.append((move, apply_move(view, move)))
            elif step < 0.7:
                move, old = applied.pop()
                revert_move(view, move, old)
            elif step < 0.85:
                pass  # same state again
            else:
                circuit.apply_assignment(snapshot)
                applied.clear()
                snapshot = circuit.assignment()
            check_state(view, varmodel)
        return int(tele.counter("ssta_reused_total").value)


@pytest.fixture(params=("c17", "c432", "c3540"))
def circuit(request, lib):
    return make_benchmark(request.param, lib)


class TestReuseMatchesFreshRuns:
    def test_random_move_sequences(self, circuit, spec):
        varmodel = build_variation_model(circuit, spec)
        view = TimingView(circuit)
        n_steps = 30 if circuit.n_gates > 1000 else 60
        reused = walk(view, varmodel, seed=circuit.n_gates, n_steps=n_steps)
        assert reused > 0  # the walk exercises the reuse path, too

    def test_revert_to_the_previous_state_propagates(self, c432, spec):
        varmodel = build_variation_model(c432, spec)
        view = TimingView(c432)
        first = run_ssta(view, varmodel)
        move = Move(index=3, kind="vth", new_vth=VthClass.HIGH)
        old = apply_move(view, move)
        moved = run_ssta(view, varmodel)
        revert_move(view, move, old)
        back = run_ssta(view, varmodel)
        # One slot: the state two runs ago is not remembered.
        assert back is not first and back is not moved
        assert_same_result(back, first)
        check_state(view, varmodel)

    def test_apply_assignment_restores_a_state(self, c432, spec):
        varmodel = build_variation_model(c432, spec)
        view = TimingView(c432)
        initial = c432.assignment()
        run_ssta(view, varmodel)
        c432.set_uniform(size=2.0, vth=VthClass.HIGH)
        check_state(view, varmodel)
        c432.apply_assignment(initial)
        check_state(view, varmodel)

    def test_specs_with_equal_means_alternate(self, c432, spec):
        # Gate-delay means depend on the circuit state alone; a second
        # spec with wider Vth spread changes only the sensitivities and
        # independent parts, so a key on the means would reuse a stale
        # result here.
        wide = replace(spec, sigma_vth_total=2.0 * spec.sigma_vth_total)
        models = [build_variation_model(c432, s) for s in (spec, wide)]
        view = TimingView(c432)
        for varmodel in models * 3:
            result = run_ssta(view, varmodel)
            assert_same_result(result, run_ssta(TimingView(c432), varmodel))
        a, b = (run_ssta(view, m) for m in models)
        assert_bitwise(a.gate_delay_means, b.gate_delay_means)
        assert a.circuit_delay.sigma != b.circuit_delay.sigma

    def test_zero_variance_spec(self, c432, spec):
        flat = VariationSpec(sigma_l_total=0.0, sigma_vth_total=0.0)
        models = [build_variation_model(c432, s) for s in (flat, spec)]
        view = TimingView(c432)
        walk(view, models[0], seed=5, n_steps=15)
        for varmodel in models * 2:
            check_state(view, varmodel)
        assert run_ssta(view, models[0]).circuit_delay.sigma == 0.0


class TestSharedResult:
    def test_repeat_returns_the_same_object(self, c432, varmodel_c432):
        view = TimingView(c432)
        with telemetry_session() as tele:
            first = run_ssta(view, varmodel_c432)
            second = run_ssta(view, varmodel_c432)
        assert second is first
        assert tele.counter("ssta_runs_total").value == 2
        assert tele.counter("ssta_reused_total").value == 1
        assert [s.attrs["reused"] for s in tele.finished_spans("ssta.run")] == [
            False, True,
        ]
        assert len(tele.finished_spans("ssta.propagate")) == 1

    def test_criticality_is_computed_once_per_state(self, c432, varmodel_c432):
        view = TimingView(c432)
        with telemetry_session() as tele:
            run_ssta(view, varmodel_c432).criticality
            run_ssta(view, varmodel_c432).criticality
        assert len(tele.finished_spans("ssta.criticality")) == 1

    def test_a_circuit_always_propagates(self, c432, varmodel_c432):
        with telemetry_session() as tele:
            first = run_ssta(c432, varmodel_c432)
            second = run_ssta(c432, varmodel_c432)
        assert second is not first
        assert tele.counter("ssta_reused_total").value == 0
        assert_same_result(second, first)

    def test_shared_arrays_reject_writes(self, c432, varmodel_c432):
        view = TimingView(c432)
        result = run_ssta(view, varmodel_c432)
        assert run_ssta(view, varmodel_c432) is result
        for array in (
            result.gate_delay_means,
            result.criticality,
            result.arrivals.rows,
            result.circuit_delay.sens,
        ):
            with pytest.raises(ValueError):
                array[0] = 1.0


class TestStateVersion:
    def test_a_version_hit_builds_no_rows(self, c432, varmodel_c432):
        view = TimingView(c432)
        with telemetry_session() as tele:
            first = run_ssta(view, varmodel_c432)
            second = run_ssta(view, varmodel_c432)
        assert second is first
        assert tele.counter("ssta_reused_total").value == 1
        assert len(tele.finished_spans("ssta.delays")) == 1
        assert [s.attrs["reused"] for s in tele.finished_spans("ssta.run")] == [
            False, True,
        ]

    def test_apply_and_revert_reuses_through_the_row_guard(self, c432, varmodel_c432):
        view = TimingView(c432)
        rng = np.random.default_rng(2)
        with telemetry_session() as tele:
            first = run_ssta(view, varmodel_c432)
            for _ in range(5):
                move = random_move(view, rng)
                version = c432.state.version
                revert_move(view, move, apply_move(view, move))
                assert c432.state.version > version
                assert run_ssta(view, varmodel_c432) is first
        # Every revert moved the version: each run built its rows once,
        # found them repeated and reused.
        assert tele.counter("ssta_reused_total").value == 5
        assert len(tele.finished_spans("ssta.delays")) == 6
        assert len(tele.finished_spans("ssta.propagate")) == 1
        # The slot now carries the new version: the next run is a hit.
        with telemetry_session() as tele:
            assert run_ssta(view, varmodel_c432) is first
        assert not tele.finished_spans("ssta.delays")

    def test_a_rejected_move_proposed_again_reuses_through_the_row_guard(
        self, c432, varmodel_c432
    ):
        # The annealer's pattern: apply and analyze, revert, then propose
        # the same move again; the state is the one last analyzed.
        view = TimingView(c432)
        gate = view.gates[0]
        run_ssta(view, varmodel_c432)
        gate.vth = gate.vth.other()
        applied = run_ssta(view, varmodel_c432)
        gate.vth = gate.vth.other()
        gate.vth = gate.vth.other()
        with telemetry_session() as tele:
            assert run_ssta(view, varmodel_c432) is applied
        assert tele.counter("ssta_reused_total").value == 1
        assert len(tele.finished_spans("ssta.delays")) == 1
        assert not tele.finished_spans("ssta.propagate")
        check_state(view, varmodel_c432)

    def test_another_model_at_the_same_version_propagates(self, c432, spec):
        wide = replace(spec, sigma_vth_total=2.0 * spec.sigma_vth_total)
        base, other = (build_variation_model(c432, s) for s in (spec, wide))
        view = TimingView(c432)
        version = c432.state.version
        with telemetry_session() as tele:
            a = run_ssta(view, base)
            b = run_ssta(view, other)
        assert c432.state.version == version
        assert b is not a
        assert tele.counter("ssta_reused_total").value == 0
        assert len(tele.finished_spans("ssta.propagate")) == 2
        assert_same_result(b, run_ssta(TimingView(c432), other))

    def test_an_equal_model_reuses_through_the_row_guard(self, c432, spec):
        view = TimingView(c432)
        first = run_ssta(view, build_variation_model(c432, spec))
        with telemetry_session() as tele:
            again = run_ssta(view, build_variation_model(c432, spec))
        assert again is first
        assert len(tele.finished_spans("ssta.delays")) == 1

    def test_every_write_bumps_the_version(self, c432):
        state = c432.state
        gate = c432.indexed_gates()[0]
        for write in (
            lambda: setattr(gate, "size", 2.0),
            lambda: setattr(gate, "vth", VthClass.HIGH),
            lambda: setattr(gate, "length_bias", 2e-9),
            lambda: c432.apply_assignment(c432.assignment()),
            lambda: c432.set_uniform(size=1.0),
        ):
            version = state.version
            write()
            assert state.version > version

    def test_state_arrays_reject_direct_writes(self, c432):
        state = c432.state
        for array in (
            state.sizes, state.size_codes, state.vths, state.length_biases,
            state.cells,
        ):
            with pytest.raises(ValueError):
                array[0] = 1
        version = state.version
        with pytest.raises(ValueError):
            np.copyto(state.sizes, 2.0)
        assert state.version == version

    def test_the_model_rejects_writes(self, varmodel_c432):
        for array in (varmodel_c432.l_loadings, varmodel_c432.vth_loadings):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
        with pytest.raises(VariationError):
            varmodel_c432.l_indep = 0.0
        with pytest.raises(VariationError):
            varmodel_c432.vth_indep = 0.0

    def test_loads_and_delays_are_kept_per_version(self, c432):
        view = TimingView(c432)
        loads, delays = view.load_caps(), view.nominal_delays()
        assert view.load_caps() is loads and view.nominal_delays() is delays
        for array in (loads, delays):
            with pytest.raises(ValueError):
                array[0] = 1.0
        consumer = int(view.consumer_pins[0][0])
        view.gates[consumer].size = 4.0
        assert view.load_caps() is not loads
        assert view.load_caps()[0] > loads[0]
        assert view.nominal_delays()[0] > delays[0]
        # A second view of the circuit keeps its own slot.
        other = TimingView(c432)
        assert_bitwise(other.nominal_delays(), view.nominal_delays())


class TestSameBits:
    def test_equal_rows_match(self):
        rows = np.arange(12.0).reshape(3, 4)
        assert _same_bits(rows, rows.copy())

    def test_signed_zeros_differ(self):
        assert not _same_bits(np.zeros((2, 3)), -np.zeros((2, 3)))

    def test_nan_never_matches(self):
        rows = np.ones((2, 3))
        rows[1, 2] = np.nan
        assert not _same_bits(rows, rows.copy())

    def test_shapes_must_agree(self):
        assert not _same_bits(np.zeros((2, 3)), np.zeros((2, 4)))
        assert not _same_bits(np.zeros((2, 3)), np.zeros((3, 3)))
