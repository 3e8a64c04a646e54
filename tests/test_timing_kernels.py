"""Batched SSTA/STA kernels vs the scalar per-gate reference, bitwise.

The batched kernels keep every gate's operations and their order, so
their outputs must equal the scalar loops in ``timing_reference`` bit for
bit -- on the benchmark circuits at seeded random implementation states
and on the degenerate structures where batching is easiest to get wrong
(θ-floor merges, one gate, tied outputs, a repeated fanin, mixed fanins).
SSTA's wave schedule is replayed against the per-gate fold it batches.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuit import Circuit, build_variation_model, make_benchmark
from repro.circuit.benchmarks import benchmark_names
from repro.errors import LibraryError
from repro.tech import VthClass, slow_corner
from repro.telemetry import telemetry_session
from repro.timing import Canonical, TimingView, max_moments, run_ssta, run_sta
from repro.timing.canonical import CanonicalArray, MergeBatch, clark_merge
from repro.timing.graph import LevelSchedule, WaveSchedule
from repro.timing.ssta import gate_delay_canonicals
from repro.variation import VariationSpec

from . import timing_reference as ref

CIRCUITS = ("c17", "c432", "c880", "c3540")
N_STATES = 8
#: Long output folds: c2670's sink folds 140 outputs, c7552's 108.
LONG_FOLD_CIRCUITS = ("c2670", "c7552")
LONG_FOLD_STATES = 2
LENGTH_BIASES = (0.0, 2e-9, 4e-9)


def assert_bitwise(actual, expected) -> None:
    a = np.ascontiguousarray(actual, dtype=float)
    e = np.ascontiguousarray(expected, dtype=float)
    assert a.shape == e.shape
    if a.tobytes() != e.tobytes():
        bad = np.flatnonzero(a.ravel() != e.ravel())[:5]
        raise AssertionError(f"not bitwise equal at flat indices {bad.tolist()}")


def randomize(circuit: Circuit, seed: int) -> None:
    """A seeded random size / Vth / length-bias state."""
    rng = np.random.default_rng(seed)
    sizes = np.asarray(circuit.library.sizes)
    for gate in circuit.indexed_gates():
        gate.size = float(rng.choice(sizes))
        gate.vth = VthClass.HIGH if rng.random() < 0.5 else VthClass.LOW
        gate.length_bias = float(rng.choice(LENGTH_BIASES))


def assert_canonicals_equal(actual: CanonicalArray, expected) -> None:
    assert len(actual) == len(expected)
    assert_bitwise(actual.mean, [c[0] for c in expected])
    assert_bitwise(actual.sens, np.array([c[1] for c in expected]))
    assert_bitwise(actual.indep, [c[2] for c in expected])


def assert_ssta_matches_reference(view: TimingView, varmodel) -> None:
    expected = ref.run_ssta(view, varmodel)
    result = run_ssta(view, varmodel)
    assert_canonicals_equal(gate_delay_canonicals(view, varmodel), expected.delays)
    assert_canonicals_equal(result.arrivals, expected.arrivals)
    assert_bitwise(result.gate_delay_means, [c[0] for c in expected.delays])
    mean, sens, indep = expected.circuit_delay
    assert_bitwise(result.circuit_delay.mean, mean)
    assert_bitwise(result.circuit_delay.sens, sens)
    assert_bitwise(result.circuit_delay.indep, indep)
    assert_bitwise(result.criticality, expected.criticality)


def assert_sta_matches_reference(view: TimingView, **kwargs) -> None:
    expected = ref.run_sta(view, **kwargs)
    result = run_sta(view, **kwargs)
    assert_bitwise(result.gate_delays, expected.gate_delays)
    assert_bitwise(result.arrivals, expected.arrivals)
    assert_bitwise(result.required, expected.required)
    assert_bitwise(result.circuit_delay, expected.circuit_delay)
    assert result.critical_path == expected.critical_path


@pytest.fixture(params=CIRCUITS)
def bench_circuit(request, lib):
    return make_benchmark(request.param, lib)


class TestBenchmarkCircuits:
    def test_ssta_bitwise_at_random_states(self, bench_circuit, spec):
        varmodel = build_variation_model(bench_circuit, spec)
        view = TimingView(bench_circuit)
        for seed in range(N_STATES):
            randomize(bench_circuit, seed)
            assert_ssta_matches_reference(view, varmodel)

    @pytest.mark.parametrize("name", LONG_FOLD_CIRCUITS)
    def test_ssta_bitwise_on_long_output_folds(self, name, lib, spec):
        circuit = make_benchmark(name, lib)
        varmodel = build_variation_model(circuit, spec)
        view = TimingView(circuit)
        for seed in range(LONG_FOLD_STATES):
            randomize(circuit, seed)
            assert_ssta_matches_reference(view, varmodel)

    def test_sta_bitwise_at_random_states(self, bench_circuit, spec):
        view = TimingView(bench_circuit)
        corner = slow_corner(spec, 3.0)
        for seed in range(N_STATES):
            randomize(bench_circuit, seed)
            assert_sta_matches_reference(view)
            assert_sta_matches_reference(view, corner=corner)
            nominal = ref.run_sta(view).circuit_delay
            assert_sta_matches_reference(view, target_delay=0.9 * nominal)

    def test_load_caps_match_per_gate_loads(self, bench_circuit):
        view = TimingView(bench_circuit)
        for seed in range(N_STATES):
            randomize(bench_circuit, seed)
            loads = view.load_caps()
            assert_bitwise(loads, [view.load_cap_of(i) for i in range(view.n_gates)])
            assert_bitwise(view.nominal_delays(), ref.nominal_delays(view))


class TestSizeRangeCheck:
    def test_out_of_range_consumer_size_raises(self, c432):
        view = TimingView(c432)
        consumer = int(view.consumer_pins[0][0])
        view.gates[consumer].size = 100.0
        with pytest.raises(LibraryError, match="outside library range"):
            view.load_caps()
        with pytest.raises(LibraryError, match="outside library range"):
            view.nominal_delays()

    def test_range_check_survives_a_cached_size(self, c432):
        view = TimingView(c432)
        view.load_caps()  # warms the (cell, size) cache
        consumer = int(view.consumer_pins[0][0])
        view.gates[consumer].size = 0.5
        with pytest.raises(LibraryError):
            view.load_caps()


def _chain_circuit(lib, gates) -> Circuit:
    """``gates``: (name, cell, fanins); outputs are the gates named ``o*``."""
    c = Circuit("degenerate", lib)
    for net in ("x", "y"):
        c.add_input(net)
    for name, cell, fanins in gates:
        c.add_gate(name, cell, fanins)
    for name, _, _ in gates:
        if name.startswith("o"):
            c.add_output(name)
    return c


DEGENERATE = {
    "single_gate": [("o1", "INV", ["x"])],
    "identical_outputs": [
        ("g", "NAND2", ["x", "y"]),
        ("o1", "INV", ["g"]),
        ("o2", "INV", ["g"]),
    ],
    "duplicated_fanin": [
        ("g", "INV", ["x"]),
        ("h", "NAND2", ["g", "g"]),
        ("o1", "NAND3", ["h", "g", "h"]),
    ],
    "mixed_fanins": [
        ("g", "INV", ["x"]),
        ("h", "NOR2", ["y", "g"]),
        ("o1", "NAND3", ["x", "h", "g"]),
        ("o2", "AND2", ["h", "y"]),
    ],
}


class TestDegenerateInputs:
    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_structures_bitwise(self, name, lib, spec):
        circuit = _chain_circuit(lib, DEGENERATE[name])
        varmodel = build_variation_model(circuit, spec)
        view = TimingView(circuit)
        for seed in range(N_STATES):
            randomize(circuit, seed)
            assert_ssta_matches_reference(view, varmodel)
            assert_sta_matches_reference(view)
        ssta = run_ssta(view, varmodel)
        assert np.all(np.isfinite(ssta.criticality))
        assert ssta.circuit_delay.sigma > 0

    def test_duplicated_fanin_counts_both_pins(self, lib, spec):
        circuit = _chain_circuit(lib, DEGENERATE["duplicated_fanin"])
        ssta = run_ssta(circuit, build_variation_model(circuit, spec))
        # Every path runs through g (through h twice): all of o1's
        # criticality reaches it, which a scatter dropping repeated
        # indices would halve.
        assert ssta.criticality[circuit.gate_index("g")] == pytest.approx(1.0, abs=1e-9)

    def test_zero_variance_hits_the_theta_floor(self, lib, c432):
        flat = VariationSpec(sigma_l_total=0.0, sigma_vth_total=0.0)
        varmodel = build_variation_model(c432, flat)
        view = TimingView(c432)
        for seed in range(N_STATES):
            randomize(c432, seed)
            assert_ssta_matches_reference(view, varmodel)
            ssta = run_ssta(view, varmodel)
            assert ssta.circuit_delay.sigma == 0.0
            # Degenerate max = the larger mean: SSTA collapses to STA.
            assert ssta.circuit_delay.mean == run_sta(view).circuit_delay
            assert set(np.unique(ssta.criticality)) <= {0.0, 1.0}


class TestClarkKernel:
    def test_scalar_moments_match_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            ma, mb = rng.normal(size=2)
            va, vb = rng.uniform(0.0, 2.0, size=2)
            cov = rng.uniform(-1.0, 1.0) * math.sqrt(va * vb)
            assert max_moments(ma, va, mb, vb, cov) == ref.max_moments(ma, va, mb, vb, cov)
        for args in ((3.0, 2.0, 1.0, 2.0, 2.0), (1.0, 2.0, 3.0, 2.0, 2.0),
                     (1.0, 0.0, 1.0, 0.0, 0.0), (0.0, 1.0, 0.0, 1.0, 1.0)):
            assert max_moments(*args) == ref.max_moments(*args)

    def test_merge_step_is_the_scalar_merge_per_row(self):
        rng = np.random.default_rng(12)
        m, k = 300, 18
        canonicals = [
            (float(rng.normal()), rng.normal(size=k), float(rng.uniform(0, 1)))
            for _ in range(2 * m)
        ]
        for i in range(0, m, 7):  # identical operands: the θ floor
            canonicals[m + i] = canonicals[i]
        for i in range(3, m, 11):  # no independent part
            canonicals[i] = (canonicals[i][0], canonicals[i][1], 0.0)
        rows = canonicals + [(0.0, np.zeros(k), 0.0)] * m
        mean = [c[0] for c in rows]
        variance = [ref.variance(c) for c in rows]
        indep = [c[2] for c in rows]
        sens = np.array([c[1] for c in rows])
        left, right, out = (list(range(a, a + m)) for a in (0, m, 2 * m))

        def merge(left, right, out):
            batch = MergeBatch(left, right, out, np.array(left + right), np.array(out))
            return clark_merge(mean, variance, indep, sens, batch)

        def check(expected, tightness):
            for i, ((c, t_ref), t) in enumerate(zip(expected, tightness.tolist())):
                row = out[i]
                assert (mean[row], indep[row], t) == (c[0], c[2], t_ref)
                assert_bitwise(sens[row], c[1])
                assert variance[row] == ref.variance(c)

        expected = [
            ref.maximum_with_tightness(canonicals[i], canonicals[m + i]) for i in range(m)
        ]
        check(expected, merge(left, right, out))
        # In place, as a gate folds its later fanins into its accumulator.
        merged = [c for c, _ in expected]
        expected = [
            ref.maximum_with_tightness(merged[i], canonicals[(i + 1) % m]) for i in range(m)
        ]
        check(expected, merge(out, [(i + 1) % m for i in range(m)], out))

    def test_canonical_max_matches_reference(self):
        rng = np.random.default_rng(13)
        for k in (1, 4, 18):
            for _ in range(200):
                a = (float(rng.normal()), rng.normal(size=k), float(rng.uniform(0, 1)))
                b = (float(rng.normal()), rng.normal(size=k), float(rng.uniform(0, 1)))
                for x, y in ((a, b), (a, a)):
                    got, t = Canonical(*x).maximum_with_tightness(Canonical(*y))
                    (mean, sens, indep), t_ref = ref.maximum_with_tightness(x, y)
                    assert (got.mean, got.indep, t) == (mean, indep, t_ref)
                    assert_bitwise(got.sens, sens)


class TestLazyCriticality:
    def test_yield_only_run_skips_the_backward_pass(self, c432, varmodel_c432):
        with telemetry_session() as tele:
            ssta = run_ssta(c432, varmodel_c432)
            ssta.timing_yield(ssta.circuit_delay.mean)
            assert tele.finished_spans("ssta.criticality") == ()
            first = ssta.criticality
            assert ssta.criticality is first  # computed once
            assert len(tele.finished_spans("ssta.criticality")) == 1
        assert {s.name for s in tele.finished_spans()} >= {
            "ssta.run", "ssta.delays", "ssta.propagate", "ssta.criticality",
        }


class TestSchedule:
    def test_backward_plan_visits_every_fanin_slot_once(self, c880):
        view = TimingView(c880)
        schedule = view.schedule
        edges = np.concatenate([e for e, _ in schedule.backward])
        targets = np.concatenate([t for _, t in schedule.backward])
        assert edges.size == sum(f.size for f in view.fanin_gates)
        assert np.unique(edges).size == edges.size
        assert edges.max() < schedule.n_slots
        for rank, (gates, _) in enumerate(schedule.levels):
            assert set(schedule.backward[rank][1].tolist()) <= set(gates.tolist())
        assert sorted(targets.tolist()) == sorted(
            np.concatenate(view.fanin_gates).tolist()
        )

    def test_dense_fanin_rows_match_the_view(self, c880):
        view = TimingView(c880)
        fanins = view.schedule.fanins
        n = view.n_gates
        assert fanins.shape == (n, max(f.size for f in view.fanin_gates))
        for row, expected in zip(fanins.tolist(), view.fanin_gates):
            assert row == expected.tolist() + [n] * (fanins.shape[1] - expected.size)
        for gates, matrix in view.schedule.levels:
            assert_bitwise(matrix, fanins[gates, : matrix.shape[1]])


def schedule_fields(waves: WaveSchedule) -> tuple:
    """Every field of a wave schedule, as plain comparable values."""
    batches = [
        (
            merge and (merge.left, merge.right, merge.out,
                       merge.gather.tolist(), merge.scatter.tolist()),
            add and (add.src, add.gates, add.src_rows.tolist(), add.gate_rows.tolist()),
        )
        for merge, add in waves.waves
    ]
    return (waves.n_gates, waves.width, waves.n_outputs, waves.sink,
            waves.slots.tolist(), batches)


def assert_wave_schedule(view: TimingView) -> None:
    """Replay the view's wave schedule against the per-gate fold.

    Every merge folds its row's next fanin -- a gate's fanins in order,
    then the sink's primary outputs in ``po`` order -- in the first wave
    after both operands are complete, and every add follows its gate's
    last merge (or, for a one-fanin gate, that fanin's add) by exactly as
    much as the batching requires.
    """
    waves = view.waves
    n, width = view.n_gates, waves.width
    po = view.primary_output_indices().tolist()
    fanins = [f.tolist() for f in view.fanin_gates] + [po]
    ready = [None if f else 0 for f in fanins[:n]]  # wave of each gate's add
    folded = [1] * (n + 1)  # the next fanin each row folds
    latest = [None] * (n + 1)  # wave of each row's latest merge
    slots = []
    for wave, (merge, add) in enumerate(waves.waves, start=1):
        if merge is not None:
            assert merge.gather.tolist() == merge.left + merge.right
            assert merge.scatter.tolist() == merge.out
            assert len(set(merge.out)) == len(merge.out)
            for left, right, row in zip(merge.left, merge.right, merge.out):
                j = folded[row]
                assert right == fanins[row][j]
                if j == 1:
                    assert left == fanins[row][0]
                    operands = [ready[left], ready[right]]
                else:
                    assert left == row
                    operands = [latest[row], ready[right]]
                assert None not in operands and max(operands) + 1 == wave
                folded[row], latest[row] = j + 1, wave
                slots.append(row * width + j)
        if add is not None:
            assert add.src_rows.tolist() == add.src
            assert add.gate_rows.tolist() == add.gates
            for src, gate in zip(add.src, add.gates):
                assert gate < n and ready[gate] is None
                assert folded[gate] == len(fanins[gate])
                if len(fanins[gate]) == 1:
                    assert src == fanins[gate][0] and ready[src] + 1 == wave
                else:
                    assert src == gate and latest[gate] == wave
                ready[gate] = wave
    assert None not in ready
    assert folded[n] == len(po)
    assert waves.sink == (n if len(po) > 1 else po[0])
    assert waves.slots.tolist() == slots
    assert waves.n_merges == len(slots) == sum(max(len(f) - 1, 0) for f in fanins)
    assert waves.n_merge_calls == sum(merge is not None for merge, _ in waves.waves)


class TestWaveSchedule:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_benchmark_schedules_replay_the_fold(self, name, lib):
        view = TimingView(make_benchmark(name, lib))
        assert_wave_schedule(view)
        again = TimingView(make_benchmark(name, lib)).waves
        assert schedule_fields(again) == schedule_fields(view.waves)
        po = np.flatnonzero(view.is_primary_output)
        rebuilt = WaveSchedule.build(view.schedule, po)
        assert schedule_fields(rebuilt) == schedule_fields(view.waves)

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_schedules_replay_the_fold(self, name, lib):
        view = TimingView(_chain_circuit(lib, DEGENERATE[name]))
        assert_wave_schedule(view)

    def test_c432_merge_calls(self, c432):
        waves = TimingView(c432).waves
        # 36 rank-column merges plus 6 one-row output-fold merges before.
        assert (waves.n_merge_calls, waves.n_merges, waves.n_outputs) == (28, 174, 7)


@pytest.fixture
def c880(lib):
    return make_benchmark("c880", lib)
