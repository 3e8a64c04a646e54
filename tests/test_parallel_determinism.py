"""Bitwise determinism of every sharded MC entry point across n_jobs.

The contract under test: at a fixed seed, ``n_jobs`` moves wall time and
nothing else.  Means, percentiles, and the raw per-die arrays must be
bitwise identical for any worker count, and a same-seed re-run must
reproduce the first run exactly.

Multi-worker cases skip on single-CPU runners (forking a pool there only
tests the scheduler); set ``REPRO_FORCE_PARALLEL_TESTS=1`` to force them
— determinism holds regardless, the skip is about runner economy.
"""

import os

import numpy as np
import pytest

from repro.core import OptimizerConfig, optimize_statistical
from repro.power import run_monte_carlo_leakage
from repro.timing import estimate_timing_yield, run_monte_carlo_sta, run_ssta
from repro.timing.graph import TimingView
from repro.timing.mc import LevelSchedule, _propagate_delays, draw_samples

requires_multicore = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2 and not os.environ.get("REPRO_FORCE_PARALLEL_TESTS"),
    reason="single-CPU runner; set REPRO_FORCE_PARALLEL_TESTS=1 to force",
)

SAMPLES = 3000
SEED = 77


def leakage_fingerprint(circuit, varmodel, n_jobs, keep_samples=True):
    mc = run_monte_carlo_leakage(
        circuit, varmodel, n_samples=SAMPLES, seed=SEED,
        n_jobs=n_jobs, keep_samples=keep_samples,
    )
    return mc


def timing_fingerprint(circuit, varmodel, n_jobs, keep_samples=True):
    mc = run_monte_carlo_sta(
        circuit, varmodel, n_samples=SAMPLES, seed=SEED,
        n_jobs=n_jobs, keep_samples=keep_samples,
    )
    return mc


class TestSerialReproducibility:
    def test_leakage_same_seed_identical(self, rca8, varmodel_rca8):
        a = leakage_fingerprint(rca8, varmodel_rca8, n_jobs=1)
        b = leakage_fingerprint(rca8, varmodel_rca8, n_jobs=1)
        assert np.array_equal(a.currents, b.currents)
        assert a.mean_power == b.mean_power
        assert a.percentile_power(0.95) == b.percentile_power(0.95)

    def test_timing_same_seed_identical(self, rca8, varmodel_rca8):
        a = timing_fingerprint(rca8, varmodel_rca8, n_jobs=1)
        b = timing_fingerprint(rca8, varmodel_rca8, n_jobs=1)
        assert np.array_equal(a.circuit_delays, b.circuit_delays)
        assert a.mean == b.mean
        assert a.percentile(0.95) == b.percentile(0.95)

    def test_common_random_numbers_across_metrics(self, rca8, varmodel_rca8):
        # Leakage and timing MC at the same seed see the same dies: the
        # shard streams depend only on (n_samples, seed), not the metric.
        leak = leakage_fingerprint(rca8, varmodel_rca8, n_jobs=1)
        timing = timing_fingerprint(rca8, varmodel_rca8, n_jobs=1)
        assert np.array_equal(leak.samples.z, timing.samples.z)
        assert np.array_equal(leak.samples.delta_vth, timing.samples.delta_vth)


@requires_multicore
class TestWorkerCountInvariance:
    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_leakage_bitwise_identical(self, rca8, varmodel_rca8, n_jobs):
        serial = leakage_fingerprint(rca8, varmodel_rca8, n_jobs=1)
        parallel = leakage_fingerprint(rca8, varmodel_rca8, n_jobs=n_jobs)
        assert np.array_equal(serial.currents, parallel.currents)
        assert serial.mean_power == parallel.mean_power
        assert serial.std_power == parallel.std_power
        for q in (0.05, 0.5, 0.95, 0.99):
            assert serial.percentile_power(q) == parallel.percentile_power(q)

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_timing_bitwise_identical(self, rca8, varmodel_rca8, n_jobs):
        serial = timing_fingerprint(rca8, varmodel_rca8, n_jobs=1)
        parallel = timing_fingerprint(rca8, varmodel_rca8, n_jobs=n_jobs)
        assert np.array_equal(serial.circuit_delays, parallel.circuit_delays)
        assert serial.mean == parallel.mean
        assert serial.std == parallel.std
        for q in (0.05, 0.5, 0.95, 0.99):
            assert serial.percentile(q) == parallel.percentile(q)

    def test_timing_yield_bitwise_identical(self, rca8, varmodel_rca8):
        ssta = run_ssta(rca8, varmodel_rca8)
        target = ssta.circuit_delay.percentile(0.9)
        serial, parallel = (
            estimate_timing_yield(
                rca8, varmodel_rca8, target, n_samples=SAMPLES, seed=SEED,
                n_jobs=n_jobs, estimator="plain",
            )
            for n_jobs in (1, 4)
        )
        assert serial.timing_yield == parallel.timing_yield
        assert serial.n_samples == parallel.n_samples == SAMPLES

    def test_keep_samples_does_not_change_statistics(self, rca8, varmodel_rca8):
        full = timing_fingerprint(rca8, varmodel_rca8, n_jobs=2, keep_samples=True)
        lean = timing_fingerprint(rca8, varmodel_rca8, n_jobs=2, keep_samples=False)
        assert lean.samples is None
        assert full.samples is not None
        assert np.array_equal(full.circuit_delays, lean.circuit_delays)
        assert full.mean == lean.mean
        assert full.percentile(0.95) == lean.percentile(0.95)

    def test_mc_yield_optimizer_path_deterministic(self, c17, spec):
        # The optimizer's MC-feasibility mode must be reproducible across
        # worker counts too: same moves, same final implementation state.
        # (optimize_statistical resets the implementation before running,
        # so back-to-back runs on one circuit start from identical state.)
        from repro.circuit import build_variation_model

        vm = build_variation_model(c17, spec)
        results = []
        for n_jobs in (1, 2):
            config = OptimizerConfig(
                yield_mc_samples=800, yield_mc_seed=5, n_jobs=n_jobs
            )
            out = optimize_statistical(c17, spec, vm, config=config)
            results.append((out.moves_applied, out.final_assignment))
        assert results[0] == results[1]


def naive_propagate(samples, nominal, sens_l, sens_v, fanin_gates, po):
    """The historical per-gate arrival loop, kept as the bitwise oracle.

    This is the scalar implementation the levelized batch pass replaced;
    the vectorized path must reproduce it to the last bit, not merely to
    tolerance — MC is the repo's golden reference and its distribution
    may not move under a performance rewrite.
    """
    x = sens_l * samples.delta_l + sens_v * samples.delta_vth
    gate_delays = nominal * (1.0 + x + 0.5 * x * x)
    arrivals = np.empty_like(gate_delays)
    for i in range(nominal.shape[0]):
        fanins = fanin_gates[i]
        if fanins.size:
            worst = arrivals[:, fanins].max(axis=1)
            arrivals[:, i] = worst + gate_delays[:, i]
        else:
            arrivals[:, i] = gate_delays[:, i]
    return arrivals[:, po].max(axis=1)


class TestVectorizedPropagation:
    @pytest.mark.parametrize("fixture", ["c17", "rca8"])
    def test_bitwise_identical_to_naive_reference(self, fixture, request, spec):
        from repro.circuit import build_variation_model

        circuit = request.getfixturevalue(fixture)
        vm = build_variation_model(circuit, spec)
        view = TimingView(circuit)
        samples = draw_samples(vm, 500, seed=SEED,
                               relative_area=view.rdf_relative_area())
        nominal = view.nominal_delays()
        vths = view.vths()
        sens_l = np.array(
            [view.library.drive_model(v).d_lnr_d_deltal for v in vths]
        )
        sens_v = np.array(
            [view.library.drive_model(v).d_lnr_d_deltavth for v in vths]
        )
        fanin_gates = tuple(view.fanin_gates)
        po = view.primary_output_indices()
        schedule = LevelSchedule.build(fanin_gates)
        fast = _propagate_delays(samples, nominal, sens_l, sens_v, schedule, po)
        slow = naive_propagate(samples, nominal, sens_l, sens_v, fanin_gates, po)
        assert np.array_equal(fast, slow)

    def test_schedule_is_a_partition_respecting_ranks(self, rca8):
        view = TimingView(rca8)
        fanin_gates = tuple(view.fanin_gates)
        schedule = LevelSchedule.build(fanin_gates)
        seen = np.concatenate([gates for gates, _ in schedule.levels])
        assert sorted(seen.tolist()) == list(range(view.n_gates))
        rank_of = np.empty(view.n_gates, dtype=int)
        for rank, (gates, _) in enumerate(schedule.levels):
            rank_of[gates] = rank
        for g in range(view.n_gates):
            for f in fanin_gates[g]:
                assert rank_of[f] < rank_of[g]

    def test_schedule_pads_with_sentinel_column(self, rca8):
        view = TimingView(rca8)
        fanin_gates = tuple(view.fanin_gates)
        schedule = LevelSchedule.build(fanin_gates)
        assert schedule.n_gates == view.n_gates
        gates0, matrix0 = schedule.levels[0]
        assert matrix0.size == 0  # rank 0 is the fanin-free gates
        for gates, matrix in schedule.levels[1:]:
            for row, g in enumerate(gates):
                fanins = fanin_gates[g]
                assert np.array_equal(matrix[row, : fanins.size], fanins)
                assert (matrix[row, fanins.size:] == view.n_gates).all()

    def test_empty_circuit_schedule(self):
        schedule = LevelSchedule.build(())
        assert schedule.n_gates == 0
        assert schedule.levels == ()
