"""Yield utilities over canonical forms and MC samples."""

import math

import numpy as np
import pytest

from repro.engines import get_engine
from repro.errors import EngineError, TimingError
from repro.mcstat import ESTIMATOR_NAMES, binomial_estimate
from repro.timing import (
    Canonical,
    degenerate_cdf,
    degenerate_quantile,
    empirical_yield_curve,
    estimate_timing_yield,
    run_ssta,
    yield_curve,
)
from repro.variation import VariationSpec
from repro.variation.model import VariationModel


@pytest.fixture
def delay():
    return Canonical(1e-9, np.array([5e-11]), 3e-11)


@pytest.fixture
def analyses(c17, spec):
    """One circuit's SSTA result and the clark engine's, side by side."""
    from repro.circuit.placement import build_variation_model

    varmodel = build_variation_model(c17, spec)
    return run_ssta(c17, varmodel), get_engine("clark").analyze(c17, varmodel)


def test_timing_yield_at_mean(analyses):
    ssta, result = analyses
    mean = ssta.circuit_delay.mean
    assert ssta.timing_yield(mean) == pytest.approx(0.5)
    assert result.yield_at(mean) == ssta.timing_yield(mean)


def test_target_for_yield_inverse(analyses):
    ssta, result = analyses
    t = ssta.delay_at_yield(0.99)
    assert ssta.timing_yield(t) == pytest.approx(0.99, abs=1e-9)
    assert result.delay_at_yield(0.99) == t


def test_target_for_yield_bounds(analyses):
    ssta, result = analyses
    for eta in (0.0, 1.0):
        with pytest.raises(TimingError):
            ssta.delay_at_yield(eta)
        with pytest.raises(EngineError):
            result.delay_at_yield(eta)


def test_timing_yield_rejects_bad_target(analyses):
    ssta, result = analyses
    with pytest.raises(TimingError):
        ssta.timing_yield(0.0)
    with pytest.raises(EngineError):
        result.yield_at(0.0)


def test_yield_curve_monotone(delay):
    targets = np.linspace(0.8e-9, 1.3e-9, 11)
    _, ys = yield_curve(delay, targets)
    assert np.all(np.diff(ys) >= 0)
    assert ys[0] < 0.05
    assert ys[-1] > 0.95


def test_yield_curve_empty_rejected(delay):
    with pytest.raises(TimingError):
        yield_curve(delay, [])


def test_empirical_curve_matches_analytic(delay):
    rng = np.random.default_rng(0)
    samples = rng.normal(delay.mean, delay.sigma, size=50000)
    targets = [0.9e-9, 1.0e-9, 1.1e-9]
    _, analytic = yield_curve(delay, targets)
    _, empirical = empirical_yield_curve(samples, targets)
    assert np.allclose(analytic, empirical, atol=0.01)


def test_empirical_curve_empty_rejected():
    with pytest.raises(TimingError):
        empirical_yield_curve(np.array([1.0]), [])


def test_empirical_curve_rejects_empty_samples():
    with pytest.raises(TimingError, match="empty delay sample"):
        empirical_yield_curve(np.array([]), [1e-9])


class TestDegenerateHelpers:
    """Point-mass CDF/quantile: the zero-variance clamping primitives."""

    def test_cdf_is_unit_step(self):
        assert degenerate_cdf(2.0, 1.9) == 0.0
        assert degenerate_cdf(2.0, 2.0) == 1.0  # right-continuous
        assert degenerate_cdf(2.0, 2.1) == 1.0
        assert not math.isnan(degenerate_cdf(2.0, 2.0))

    def test_quantile_is_the_point(self):
        for q in (0.001, 0.5, 0.999):
            assert degenerate_quantile(3.0, q) == 3.0

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.5])
    def test_quantile_bounds_rejected(self, q):
        with pytest.raises(TimingError):
            degenerate_quantile(3.0, q)

    def test_yields_stay_binary_not_nan(self):
        # The regression this guards: a single-bin histogram delay must
        # report yield exactly 0 or 1 through the degenerate step.
        from repro.engines import HistogramDelay

        dist = HistogramDelay(
            values=np.array([1e-9]), pmf=np.array([1.0])
        )
        assert dist.cdf(0.5e-9) == 0.0
        assert dist.cdf(2e-9) == 1.0
        assert dist.quantile(0.5) == 1e-9


class TestMCYieldEstimateEdges:
    """Degenerate plain (binomial) yields must stay NaN-free and clamped."""

    @pytest.mark.parametrize("y", [0.0, 1.0])
    def test_degenerate_yield_has_zero_stderr(self, y):
        est = binomial_estimate(100, int(100 * y), 1e-9)
        assert est.timing_yield == y
        assert est.std_error == 0.0
        assert not math.isnan(est.std_error)
        lo, hi = est.confidence_interval()
        assert (lo, hi) == (y, y)

    def test_single_sample_estimate(self):
        est = binomial_estimate(1, 1, 1e-9)
        assert est.timing_yield == 1.0
        assert est.std_error == 0.0
        assert est.n_effective == 1.0
        assert est.confidence_interval() == (1.0, 1.0)


class TestEstimateTimingYieldEdges:
    """Driver edge cases: zero variance, pinned yields, n_samples=1."""

    @pytest.mark.parametrize("name", ESTIMATOR_NAMES)
    def test_zero_variance_circuit(self, c17, tech, name):
        # All process sigmas zero: every die is nominal, the yield is a
        # step function of the target, and nothing may go NaN.
        frozen = VariationModel(
            VariationSpec(sigma_l_total=0.0, sigma_vth_total=0.0),
            n_gates=c17.n_gates,
        )
        from repro.timing import run_sta

        nominal = run_sta(c17).circuit_delay
        for target, expected in ((2.0 * nominal, 1.0), (0.5 * nominal, 0.0)):
            est = estimate_timing_yield(
                c17, frozen, target, n_samples=64, seed=0, estimator=name
            )
            assert est.timing_yield == expected
            assert est.std_error == 0.0
            assert not math.isnan(est.std_error)
            assert est.n_effective == 64.0

    @pytest.mark.parametrize("name", ESTIMATOR_NAMES)
    @pytest.mark.parametrize("factor, expected", [(10.0, 1.0), (0.1, 0.0)])
    def test_pinned_yield_no_nan(self, c17, spec, name, factor, expected):
        from repro.circuit.placement import build_variation_model
        from repro.timing import run_sta

        varmodel = build_variation_model(c17, spec)
        target = factor * run_sta(c17).circuit_delay
        est = estimate_timing_yield(
            c17, varmodel, target, n_samples=128, seed=0, estimator=name
        )
        assert est.timing_yield == expected
        assert est.std_error == 0.0
        assert not math.isnan(est.std_error)
        lo, hi = est.confidence_interval()
        assert (lo, hi) == (expected, expected)

    @pytest.mark.parametrize("name", ESTIMATOR_NAMES)
    def test_single_sample(self, c17, spec, name):
        from repro.circuit.placement import build_variation_model
        from repro.timing import run_sta

        varmodel = build_variation_model(c17, spec)
        target = 1.5 * run_sta(c17).circuit_delay
        est = estimate_timing_yield(
            c17, varmodel, target, n_samples=1, seed=0, estimator=name
        )
        assert est.n_samples == 1
        assert est.timing_yield in (0.0, 1.0)
        assert not math.isnan(est.std_error)
        assert est.n_effective == 1.0

    def test_rejects_nonpositive_target(self, c17, spec):
        from repro.circuit.placement import build_variation_model

        varmodel = build_variation_model(c17, spec)
        with pytest.raises(TimingError):
            estimate_timing_yield(c17, varmodel, 0.0, n_samples=16)

    def test_rejects_mismatched_model(self, c17):
        wrong = VariationModel(
            VariationSpec(sigma_l_total=0.0, sigma_vth_total=0.0), n_gates=1
        )
        with pytest.raises(TimingError, match="variation model covers"):
            estimate_timing_yield(c17, wrong, 1e-9, n_samples=16)
