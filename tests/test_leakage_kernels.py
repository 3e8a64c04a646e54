"""Statistical-leakage kernels vs the loops they replaced.

``sum_of_lognormals`` sums the covariance over groups of equal loading
rows and ``gate_leakage_currents`` evaluates every gate in one batched
pass.  ``leakage_reference`` keeps the blocked double sum and the
per-gate ``Cell.leakage`` loop.  The currents must match bit for bit;
the moments keep the mean bit for bit and the spread to rounding.  A
``LognormalSum`` prepared once per model must give, at every state, the
bits of the grouped sum regrouping its rows on each call.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuit import Circuit, build_variation_model, make_benchmark
from repro.errors import LibraryError, VariationError
from repro.power import gate_leakage_currents
from repro.power.probability import signal_probabilities
from repro.power.statistical import (
    analyze_statistical_leakage,
    gate_log_leakage_terms,
    leakage_lognormal_sum,
)
from repro.tech import VthClass, fast_corner, slow_corner
from repro.variation import VariationSpec, sum_of_lognormals
from repro.variation.lognormal import LognormalSum, loading_groups

from . import leakage_reference as ref

CIRCUITS = ("c17", "c432", "c3540")
N_STATES = 8
LENGTH_BIASES = (0.0, 2e-9, 4e-9)
MOMENT_RTOL = 1e-12


def randomize(circuit: Circuit, seed: int) -> None:
    """A seeded random size / Vth / length-bias state."""
    rng = np.random.default_rng(seed)
    sizes = np.asarray(circuit.library.sizes)
    for gate in circuit.indexed_gates():
        gate.size = float(rng.choice(sizes))
        gate.vth = VthClass.HIGH if rng.random() < 0.5 else VthClass.LOW
        gate.length_bias = float(rng.choice(LENGTH_BIASES))


def jitter_biases(circuit: Circuit, seed: int) -> None:
    """Off-grid length biases: a distinct leakage exponent per gate."""
    rng = np.random.default_rng(seed)
    for gate in circuit.indexed_gates():
        gate.length_bias = float(rng.uniform(0.0, 5e-9))


def every_cell_circuit(lib) -> Circuit:
    """One instance of every library cell, each reading earlier nets."""
    rng = np.random.default_rng(11)
    c = Circuit("every_cell", lib)
    nets = ["a", "b", "c", "d"]
    for net in nets:
        c.add_input(net)
    for name in lib.cell_names():
        fanins = [str(f) for f in rng.choice(nets, size=lib.cell(name).n_inputs, replace=False)]
        c.add_gate(f"g_{name}", name, fanins)
        nets.append(f"g_{name}")
    c.add_output(nets[-1])
    return c


def assert_close(actual: float, expected: float, rtol: float) -> None:
    assert abs(actual - expected) <= rtol * abs(expected), (actual, expected)


def assert_moments_match_reference(log_means, loadings, indep) -> None:
    got = sum_of_lognormals(log_means, loadings, indep)
    want = ref.sum_of_lognormals(log_means, loadings, indep)
    assert got.mean == want.mean
    assert got.std > 0.0
    for field in ("std", "mu", "sigma"):
        assert_close(getattr(got, field), getattr(want, field), MOMENT_RTOL)


class TestGroupedMoments:
    @pytest.mark.parametrize("name", CIRCUITS)
    @pytest.mark.parametrize("derate", [True, False], ids=["derated", "flat_rdf"])
    def test_default_spec_matches_reference(self, name, derate, lib, spec):
        circuit = make_benchmark(name, lib)
        varmodel = build_variation_model(circuit, spec)
        probs = signal_probabilities(circuit)
        area = None if derate else 1.0
        for seed in range(N_STATES):
            randomize(circuit, seed)
            terms = gate_log_leakage_terms(circuit, varmodel, probs, relative_area=area)
            assert loading_groups(terms[1])[0].shape[0] <= spec.grid_dim**2
            assert_moments_match_reference(*terms)

    @pytest.mark.parametrize("name", CIRCUITS)
    def test_fully_correlated_matches_reference(self, name, lib, spec):
        circuit = make_benchmark(name, lib)
        varmodel = build_variation_model(circuit, spec.fully_correlated())
        probs = signal_probabilities(circuit)
        for seed in range(N_STATES):
            randomize(circuit, seed)
            terms = gate_log_leakage_terms(circuit, varmodel, probs)
            assert loading_groups(terms[1])[0].shape[0] == 1
            assert_moments_match_reference(*terms)

    @pytest.mark.parametrize("name", CIRCUITS)
    def test_uncorrelated_matches_the_independent_sum(self, name, lib, spec):
        circuit = make_benchmark(name, lib)
        varmodel = build_variation_model(circuit, spec.without_correlation())
        probs = signal_probabilities(circuit)
        for seed in range(N_STATES):
            randomize(circuit, seed)
            log_means, loadings, indep = gate_log_leakage_terms(circuit, varmodel, probs)
            assert not np.any(loadings)
            # Independent lognormals: the variances simply add.
            exact = math.sqrt(math.fsum(
                math.expm1(s * s) * math.exp(2.0 * mu + s * s)
                for mu, s in zip(log_means.tolist(), indep.tolist())
            ))
            got = sum_of_lognormals(log_means, loadings, indep)
            assert_close(got.std, exact, 1e-13)
            # The reference subtracts two near-equal second moments.
            assert_close(got.std, ref.sum_of_lognormals(log_means, loadings, indep).std, 1e-11)

    def test_zero_variance_is_exactly_deterministic(self, c432):
        flat = VariationSpec(sigma_l_total=0.0, sigma_vth_total=0.0)
        log_means, loadings, indep = gate_log_leakage_terms(
            c432, build_variation_model(c432, flat)
        )
        got = sum_of_lognormals(log_means, loadings, indep)
        assert got.std == 0.0
        assert got.sigma == 0.0
        assert got.mean == ref.sum_of_lognormals(log_means, loadings, indep).mean

    def test_single_gate(self, lib, spec):
        c = Circuit("one", lib)
        c.add_input("x")
        c.add_gate("o", "NAND2", ["x", "x"])
        c.add_output("o")
        varmodel = build_variation_model(c, spec)
        for seed in range(N_STATES):
            randomize(c, seed)
            assert_moments_match_reference(*gate_log_leakage_terms(c, varmodel))

    def test_groups_rebuild_the_rows(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [0.0, 2.0], [-0.0, 2.0]])
        first, inverse = loading_groups(rows)
        assert first.shape[0] == 4  # -0.0 and 0.0 differ bytewise
        assert inverse[0] == inverse[2]
        np.testing.assert_array_equal(rows[first][inverse], rows)
        first, inverse = loading_groups(np.zeros((3, 0)))
        assert first.tolist() == [0]
        assert inverse.tolist() == [0, 0, 0]


SPEC_VARIANTS = ("default", "fully_correlated", "without_correlation", "zero_variance")


def _spec_variant(spec, variant):
    if variant == "zero_variance":
        return VariationSpec(sigma_l_total=0.0, sigma_vth_total=0.0)
    return spec if variant == "default" else getattr(spec, variant)()


def assert_same_summary(actual, expected) -> None:
    for field in ("mean", "std", "mu", "sigma"):
        got, want = getattr(actual, field), getattr(expected, field)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), field


class TestPreparedSum:
    @pytest.mark.parametrize("variant", SPEC_VARIANTS)
    @pytest.mark.parametrize("name", CIRCUITS)
    @pytest.mark.parametrize("derate", [True, False], ids=["derated", "flat_rdf"])
    def test_one_prepared_sum_serves_every_state(self, name, variant, derate, lib, spec):
        circuit = make_benchmark(name, lib)
        varmodel = build_variation_model(circuit, _spec_variant(spec, variant))
        probs = signal_probabilities(circuit)
        prepared = leakage_lognormal_sum(circuit, varmodel)
        area = None if derate else 1.0
        for seed in range(4):
            randomize(circuit, seed)
            log_means, loadings, indep = gate_log_leakage_terms(
                circuit, varmodel, probs, relative_area=area
            )
            expected = ref.grouped_sum_of_lognormals(log_means, loadings, indep)
            assert_same_summary(prepared.summary(log_means, indep), expected)
            assert_same_summary(sum_of_lognormals(log_means, loadings, indep), expected)
            assert prepared.n_groups == loading_groups(loadings)[0].shape[0]
            stat = analyze_statistical_leakage(
                circuit, varmodel, probs, derate_rdf_with_size=derate,
                lognormal_sum=prepared,
            )
            assert_same_summary(
                stat.summary,
                analyze_statistical_leakage(
                    circuit, varmodel, probs, derate_rdf_with_size=derate
                ).summary,
            )

    def test_single_gate(self, lib, spec):
        c = Circuit("one", lib)
        c.add_input("x")
        c.add_gate("o", "NAND2", ["x", "x"])
        c.add_output("o")
        varmodel = build_variation_model(c, spec)
        prepared = leakage_lognormal_sum(c, varmodel)
        for seed in range(N_STATES):
            randomize(c, seed)
            log_means, loadings, indep = gate_log_leakage_terms(c, varmodel)
            assert_same_summary(
                prepared.summary(log_means, indep),
                ref.grouped_sum_of_lognormals(log_means, loadings, indep),
            )

    def test_shapes_are_checked(self):
        prepared = LognormalSum(np.zeros((3, 2)))
        with pytest.raises(VariationError, match="shape mismatch"):
            prepared.summary(np.zeros(2), np.zeros(2))
        with pytest.raises(VariationError, match="shape mismatch"):
            prepared.summary(np.zeros(3), np.zeros(2))
        with pytest.raises(VariationError, match="empty"):
            sum_of_lognormals(np.zeros(0), np.zeros((0, 2)), np.zeros(0))


class TestBatchedCurrents:
    @pytest.mark.parametrize("name", ("every_cell",) + CIRCUITS)
    def test_bitwise_across_states_and_corners(self, name, lib, spec):
        if name == "every_cell":
            circuit = every_cell_circuit(lib)
            cells = {g.cell_name for g in circuit.gates()}
            assert {"NAND4", "NOR4", "XOR2", "BUF", "AND2", "OR3"} <= cells
        else:
            circuit = make_benchmark(name, lib)
        probs = signal_probabilities(circuit)
        corners = (None, fast_corner(spec), slow_corner(spec))
        for seed in range(N_STATES):
            randomize(circuit, seed)
            if seed % 2:
                jitter_biases(circuit, seed)
            assert any(g.length_bias for g in circuit.gates())
            for corner in corners:
                got = gate_leakage_currents(circuit, probs, corner)
                want = ref.gate_leakage_currents(circuit, probs, corner)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", [0.5, 1e3])
    def test_out_of_range_size_raises(self, size, c432):
        c432.indexed_gates()[7].size = size
        with pytest.raises(LibraryError):
            gate_leakage_currents(c432)
