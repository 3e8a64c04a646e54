"""Plain MC timing yield converges to the analytic (SSTA) yield estimate.

At 20k dies the binomial standard error is ~0.35% of yield, tight
enough to see real model disagreement.  SSTA is linear in the process
variables while the MC gate-delay model keeps the quadratic term, so
the comparison sits at targets near the distribution's center where the
linearization bias is well inside the 3-sigma band; deep-tail targets
would expose the (documented, expected) quadratic-term offset rather
than an engine bug.  The seed is fixed, so the check is deterministic.
"""

import pytest

from repro.mcstat import binomial_estimate
from repro.timing import estimate_timing_yield, run_ssta

N_SAMPLES = 20_000
SEED = 7


class TestConvergence:
    @pytest.mark.parametrize("eta", [0.5, 0.8])
    def test_mc_agrees_with_analytic_within_3_sigma(
        self, rca8, varmodel_rca8, eta
    ):
        ssta = run_ssta(rca8, varmodel_rca8)
        target = ssta.circuit_delay.percentile(eta)
        analytic = ssta.timing_yield(target)
        est = estimate_timing_yield(
            rca8, varmodel_rca8, target, n_samples=N_SAMPLES, seed=SEED,
            estimator="plain",
        )
        assert est.n_samples == N_SAMPLES
        assert est.target_delay == target
        lo, hi = est.confidence_interval()
        assert lo <= est.timing_yield <= hi
        assert lo <= analytic <= hi, (
            f"MC yield {est.timing_yield:.4f} vs analytic {analytic:.4f} "
            f"outside 3-sigma ({3 * est.std_error:.4f}) at eta={eta}"
        )

    def test_std_error_shrinks_with_samples(self, rca8, varmodel_rca8):
        ssta = run_ssta(rca8, varmodel_rca8)
        target = ssta.circuit_delay.percentile(0.8)
        small = estimate_timing_yield(
            rca8, varmodel_rca8, target, n_samples=1000, seed=SEED,
            estimator="plain",
        )
        large = estimate_timing_yield(
            rca8, varmodel_rca8, target, n_samples=N_SAMPLES, seed=SEED,
            estimator="plain",
        )
        assert large.std_error < small.std_error


class TestEstimateAlgebra:
    def test_confidence_interval_clamped_to_unit(self):
        est = binomial_estimate(1000, 999, 1e-9)
        assert est.timing_yield + 3.0 * est.std_error > 1.0
        lo, hi = est.confidence_interval()
        assert 0.0 <= lo <= hi == 1.0

    def test_three_sigma_band_width(self):
        est = binomial_estimate(10_000, 5_000, 1e-9)
        assert est.std_error == pytest.approx(0.005)
        assert est.confidence_interval() == pytest.approx((0.485, 0.515))
