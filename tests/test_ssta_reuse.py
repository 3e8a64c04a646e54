"""Reuse of a view's last SSTA, held bitwise to a fresh view's run.

``run_ssta`` on a :class:`TimingView` returns the view's previous result
when the gate-delay canonical rows it builds repeat bit for bit.  Every
state below is analyzed on one long-lived view and on a fresh view of the
same circuit (a fresh view always propagates); the two must agree in
every bit, whether the long-lived view's answer came from its slot or
from a new propagation.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.circuit import build_variation_model, make_benchmark
from repro.core.moves import Move, apply_move, revert_move
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
