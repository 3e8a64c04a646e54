"""Property-based tests for the importance-sampling weight math.

The ISLE weights are where a silent statistical bug would hide: a
single non-finite or negative weight corrupts the self-normalized
estimate without crashing anything.  Hypothesis sweeps the z/shift/
mixture space for the invariants the derivation promises:

* weights are finite, strictly positive, and bounded by ``1/(1-lam)``
  (the defensive-mixture guarantee — no weight blow-up anywhere);
* the log-likelihood ratio matches its definition against exact normal
  log-densities;
* a zero shift makes the proposal the nominal distribution: weights
  collapse to one and the full ISLE estimator reproduces plain MC's
  yield *exactly* (same dies, same counts).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EstimatorError
from repro.mcstat.isle import (
    failure_shift,
    log_likelihood_ratio,
    mixture_weights,
)
from repro.mcstat import DelayMoments

zs = st.floats(-6.0, 6.0)
shifts = st.floats(-4.0, 4.0)
lams = st.floats(0.01, 0.99)
dims = st.integers(1, 4)


def _z_matrix(flat, n, k):
    return np.array(flat[: n * k], dtype=float).reshape(n, k)


class TestWeightInvariants:
    @given(
        k=dims,
        z_flat=st.lists(zs, min_size=32, max_size=32),
        shift_flat=st.lists(shifts, min_size=4, max_size=4),
        lam=lams,
    )
    @settings(max_examples=200)
    def test_finite_positive_bounded(self, k, z_flat, shift_flat, lam):
        n = 32 // k
        z = _z_matrix(z_flat, n, k)
        shift = np.array(shift_flat[:k], dtype=float)
        w = mixture_weights(z, shift, lam)
        assert np.all(np.isfinite(w))
        assert np.all(w > 0.0)
        assert np.all(w <= 1.0 / (1.0 - lam) * (1.0 + 1e-12))

    @given(
        k=dims,
        z_flat=st.lists(zs, min_size=32, max_size=32),
        shift_flat=st.lists(shifts, min_size=4, max_size=4),
    )
    @settings(max_examples=200)
    def test_log_likelihood_ratio_matches_densities(
        self, k, z_flat, shift_flat
    ):
        n = 32 // k
        z = _z_matrix(z_flat, n, k)
        shift = np.array(shift_flat[:k], dtype=float)
        got = log_likelihood_ratio(z, shift)
        # Exact standard-normal log-density difference, row by row.
        expected = 0.5 * (
            np.sum(z * z, axis=1) - np.sum((z - shift) ** 2, axis=1)
        )
        assert np.allclose(got, expected, rtol=1e-10, atol=1e-10)

    @given(
        k=dims,
        z_flat=st.lists(zs, min_size=32, max_size=32),
        lam=lams,
    )
    @settings(max_examples=100)
    def test_zero_shift_weights_are_one(self, k, z_flat, lam):
        n = 32 // k
        z = _z_matrix(z_flat, n, k)
        w = mixture_weights(z, np.zeros(k), lam)
        assert np.allclose(w, 1.0, rtol=0.0, atol=1e-12)

    @given(lam=st.one_of(st.floats(-2.0, 0.0), st.floats(1.0, 2.0)))
    @settings(max_examples=50)
    def test_invalid_mixture_weight_rejected(self, lam):
        with pytest.raises(EstimatorError):
            mixture_weights(np.zeros((2, 1)), np.ones(1), lam)


class TestFailureShift:
    @given(
        mean=st.floats(0.5, 2.0),
        target=st.floats(0.5, 20.0),
        s0=st.floats(0.0, 1.0),
        s1=st.floats(0.0, 1.0),
        indep=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200)
    def test_shift_is_clipped_and_aims_at_failure(
        self, mean, target, s0, s1, indep
    ):
        moments = DelayMoments(
            mean=mean, global_sens=np.array([s0, s1]), indep_sigma=indep
        )
        mu = failure_shift(moments, target)
        assert np.all(np.isfinite(mu))
        assert math.sqrt(float(mu @ mu)) <= 4.0 * (1.0 + 1e-12)
        # The shift moves the delay mean toward (never past the sign of)
        # the target: its projection onto the sensitivities has the same
        # sign as the slack.
        projection = float(mu @ moments.global_sens)
        slack = target - mean
        assert projection * slack >= 0.0

    @pytest.mark.parametrize("s0, indep", [
        (1.8041450816871174e-160, 0.0),  # var underflows to a subnormal
        (1e-200, 1e-160),
        (5e-324, 1e-155),
    ])
    def test_subnormal_variance_gives_a_finite_clipped_shift(self, s0, indep):
        moments = DelayMoments(
            mean=1.0, global_sens=np.array([s0, 0.0]), indep_sigma=indep
        )
        mu = failure_shift(moments, 2.0)
        assert np.all(np.isfinite(mu))
        assert math.sqrt(float(mu @ mu)) <= 4.0 * (1.0 + 1e-12)
        assert mu[0] >= 0.0 and mu[1] == 0.0

    def test_zero_sensitivity_gives_zero_shift(self):
        moments = DelayMoments(
            mean=1.0, global_sens=np.zeros(2), indep_sigma=0.0
        )
        assert not np.any(failure_shift(moments, 2.0))


class TestReduceToPlain:
    """Proposal == nominal -> the estimator IS plain MC on the same dies."""

    @pytest.fixture()
    def flat_oracle(self, oracle):
        # Zero global sensitivity: the FORM shift vanishes identically,
        # so ISLE's proposal equals the nominal distribution.
        return type(oracle)(gs=(0.0, 0.0), sigma_indep=0.2)

    @pytest.mark.parametrize("eta", [0.6, 0.9])
    def test_isle_equals_plain_exactly(self, flat_oracle, eta):
        target = flat_oracle.target_at(eta)
        plain = flat_oracle.run("plain", target, 2048, seed=7, shard_size=256)
        isle = flat_oracle.run("isle", target, 2048, seed=7, shard_size=256)
        # Same dies, same counts: the yield matches bitwise.  (The
        # standard errors agree algebraically but follow different
        # floating-point paths, hence the ulp-scale tolerance.)
        assert isle.timing_yield == plain.timing_yield
        assert math.isclose(
            isle.std_error, plain.std_error, rel_tol=1e-12, abs_tol=0.0
        )
