"""Lognormal moments, Wilkinson matching, and correlated sums vs MC."""

import math

import numpy as np
import pytest

from repro.errors import VariationError
from repro.variation import (
    lognormal_mean,
    lognormal_params_from_moments,
    lognormal_percentile,
    lognormal_variance,
    single_lognormal,
    sum_of_lognormals,
)


class TestSingleLognormal:
    def test_moments_formulas(self):
        mu, sigma = 1.0, 0.5
        assert lognormal_mean(mu, sigma) == pytest.approx(math.exp(1.125))
        expected_var = (math.exp(0.25) - 1) * math.exp(2.25)
        assert lognormal_variance(mu, sigma) == pytest.approx(expected_var)

    def test_median_percentile(self):
        assert lognormal_percentile(2.0, 0.7, 0.5) == pytest.approx(math.exp(2.0))

    def test_percentile_bounds(self):
        with pytest.raises(VariationError):
            lognormal_percentile(0, 1, 0.0)
        with pytest.raises(VariationError):
            lognormal_percentile(0, 1, 1.0)

    def test_moment_matching_round_trip(self):
        mu, sigma = -3.0, 0.8
        mean = lognormal_mean(mu, sigma)
        var = lognormal_variance(mu, sigma)
        mu2, sigma2 = lognormal_params_from_moments(mean, var)
        assert mu2 == pytest.approx(mu)
        assert sigma2 == pytest.approx(sigma)

    def test_moment_matching_rejects_bad_moments(self):
        with pytest.raises(VariationError):
            lognormal_params_from_moments(-1.0, 1.0)
        with pytest.raises(VariationError):
            lognormal_params_from_moments(1.0, -1.0)

    def test_summary_helpers(self):
        summary = single_lognormal(0.0, 0.5)
        assert summary.mean == pytest.approx(lognormal_mean(0.0, 0.5))
        assert summary.variance == pytest.approx(lognormal_variance(0.0, 0.5))
        assert summary.mean_plus_k_sigma(2.0) == pytest.approx(
            summary.mean + 2 * summary.std
        )
        assert summary.cdf(summary.percentile(0.9)) == pytest.approx(0.9)
        assert summary.cdf(0.0) == 0.0

    def test_zero_sigma_cdf_is_a_step(self):
        summary = single_lognormal(-2.0, 0.0)
        point = math.exp(summary.mu)
        assert summary.cdf(math.nextafter(point, 0.0)) == 0.0
        assert summary.cdf(point) == 1.0
        assert summary.cdf(2.0 * point) == 1.0


class TestCorrelatedSum:
    def test_independent_sum_moments(self):
        # Two independent lognormals: moments add.
        log_means = np.array([0.0, 1.0])
        loadings = np.zeros((2, 1))
        indeps = np.array([0.4, 0.6])
        s = sum_of_lognormals(log_means, loadings, indeps)
        expected_mean = lognormal_mean(0.0, 0.4) + lognormal_mean(1.0, 0.6)
        expected_var = lognormal_variance(0.0, 0.4) + lognormal_variance(1.0, 0.6)
        assert s.mean == pytest.approx(expected_mean)
        assert s.variance == pytest.approx(expected_var)

    def test_perfectly_correlated_pair(self):
        # Identical loadings, no independent part: X + X = 2X exactly.
        log_means = np.array([0.0, 0.0])
        loadings = np.full((2, 1), 0.5)
        indeps = np.zeros(2)
        s = sum_of_lognormals(log_means, loadings, indeps)
        assert s.mean == pytest.approx(2 * lognormal_mean(0.0, 0.5))
        assert s.variance == pytest.approx(4 * lognormal_variance(0.0, 0.5))

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(42)
        n, k = 60, 3
        log_means = rng.normal(-2.0, 0.5, size=n)
        loadings = rng.normal(0.0, 0.15, size=(n, k))
        indeps = np.abs(rng.normal(0.0, 0.2, size=n))
        s = sum_of_lognormals(log_means, loadings, indeps)
        z = rng.standard_normal((40000, k))
        r = rng.standard_normal((40000, n))
        samples = np.exp(log_means + z @ loadings.T + r * indeps).sum(axis=1)
        assert s.mean == pytest.approx(samples.mean(), rel=0.02)
        assert s.std == pytest.approx(samples.std(), rel=0.06)
        assert s.percentile(0.95) == pytest.approx(
            np.quantile(samples, 0.95), rel=0.05
        )

    def test_blocked_accumulation_matches_direct(self):
        # Every row its own group: the grouped sum is the full double sum.
        rng = np.random.default_rng(0)
        n = 1100
        log_means = rng.normal(-1.0, 0.3, size=n)
        loadings = rng.normal(0.0, 0.1, size=(n, 2))
        indeps = np.full(n, 0.1)
        s = sum_of_lognormals(log_means, loadings, indeps)
        var_i = (loadings**2).sum(axis=1) + indeps**2
        means = np.exp(log_means + var_i / 2)
        cov = loadings @ loadings.T + np.diag(indeps**2)
        direct_second = means @ np.exp(cov) @ means
        direct_var = direct_second - means.sum() ** 2
        assert s.variance == pytest.approx(direct_var, rel=1e-10)

    def test_shape_validation(self):
        with pytest.raises(VariationError):
            sum_of_lognormals(np.zeros(3), np.zeros((2, 1)), np.zeros(3))
        with pytest.raises(VariationError):
            sum_of_lognormals(np.zeros(0), np.zeros((0, 1)), np.zeros(0))
