"""Canonical first-order form arithmetic."""

import math

import numpy as np
import pytest

from repro.errors import TimingError
from repro.timing import Canonical, maximum_of


def make(mean, sens, indep):
    return Canonical(mean, np.asarray(sens, dtype=float), indep)


class TestMoments:
    def test_variance_combines_parts(self):
        c = make(1.0, [0.3, 0.4], 0.5)
        assert c.variance == pytest.approx(0.09 + 0.16 + 0.25)
        assert c.sigma == pytest.approx(math.sqrt(0.5))

    def test_covariance_through_globals_only(self):
        a = make(0.0, [1.0, 0.0], 0.7)
        b = make(0.0, [0.5, 2.0], 0.9)
        assert a.covariance(b) == pytest.approx(0.5)

    def test_constant(self):
        c = Canonical.constant(3.0, 4)
        assert c.mean == 3.0
        assert c.sigma == 0.0
        assert c.cdf(3.1) == 1.0
        assert c.cdf(2.9) == 0.0

    def test_cdf_and_percentile_consistent(self):
        c = make(10.0, [1.0], 1.0)
        x = c.percentile(0.83)
        assert c.cdf(x) == pytest.approx(0.83, abs=1e-9)

    def test_percentile_bounds(self):
        c = make(0.0, [1.0], 0.0)
        with pytest.raises(TimingError):
            c.percentile(0.0)

    def test_negative_indep_rejected(self):
        with pytest.raises(TimingError):
            make(0.0, [0.0], -0.1)


class TestArithmetic:
    def test_shift_and_scale(self):
        c = make(2.0, [0.5], 0.5)
        assert c.shifted(1.0).mean == 3.0
        assert c.shifted(1.0).sigma == pytest.approx(c.sigma)
        doubled = c.scaled(2.0)
        assert doubled.mean == 4.0
        assert doubled.sigma == pytest.approx(2 * c.sigma)

    def test_sum_exact(self):
        a = make(1.0, [0.3, 0.0], 0.4)
        b = make(2.0, [0.1, 0.2], 0.3)
        s = a.plus(b)
        assert s.mean == 3.0
        assert np.allclose(s.sens, [0.4, 0.2])
        assert s.indep == pytest.approx(math.hypot(0.4, 0.3))

    def test_sum_variance_includes_correlation(self):
        a = make(0.0, [1.0], 0.0)
        b = make(0.0, [1.0], 0.0)
        s = a.plus(b)
        # Perfectly correlated: Var(A+B) = 4, not 2.
        assert s.variance == pytest.approx(4.0)


class TestMaximum:
    def test_max_of_identical_is_identity_like(self):
        a = make(5.0, [1.0], 0.0)
        m = a.maximum(a)
        assert m.mean == pytest.approx(5.0)
        assert m.sigma == pytest.approx(1.0)

    def test_max_dominant(self):
        a = make(100.0, [0.1], 0.1)
        b = make(0.0, [0.1], 0.1)
        m, tightness = a.maximum_with_tightness(b)
        assert m.mean == pytest.approx(100.0)
        assert tightness == pytest.approx(1.0)

    def test_max_exceeds_means(self):
        a = make(1.0, [0.5], 0.2)
        b = make(1.0, [0.0], 0.5)
        m = a.maximum(b)
        assert m.mean > 1.0

    def test_sensitivity_blend(self):
        a = make(0.0, [1.0, 0.0], 0.0)
        b = make(0.0, [0.0, 1.0], 0.0)
        m, tightness = a.maximum_with_tightness(b)
        assert tightness == pytest.approx(0.5)
        assert np.allclose(m.sens, [0.5, 0.5])
        # Residual variance lands in the independent part.
        assert m.indep > 0

    def test_max_against_monte_carlo(self):
        rng = np.random.default_rng(9)
        a = make(1.0, [0.5, 0.2], 0.3)
        b = make(1.1, [0.1, 0.4], 0.2)
        z = rng.standard_normal((200000, 2))
        sa = 1.0 + z @ np.array([0.5, 0.2]) + 0.3 * rng.standard_normal(200000)
        sb = 1.1 + z @ np.array([0.1, 0.4]) + 0.2 * rng.standard_normal(200000)
        maxes = np.maximum(sa, sb)
        m = a.maximum(b)
        assert m.mean == pytest.approx(maxes.mean(), abs=0.01)
        assert m.sigma == pytest.approx(maxes.std(), rel=0.03)

    def test_maximum_of_list(self):
        cs = [make(float(i), [0.1], 0.1) for i in range(5)]
        m = maximum_of(cs)
        assert m.mean >= 4.0

    def test_maximum_of_empty_rejected(self):
        with pytest.raises(TimingError):
            maximum_of([])

    def test_maximum_of_single_is_identity(self):
        c = make(2.0, [0.3], 0.1)
        m = maximum_of([c])
        assert m.mean == c.mean
        assert m.sigma == c.sigma


class TestDegenerateEdges:
    """Zero-variance canonicals must answer exactly, never NaN."""

    def test_constant_percentile_is_the_point(self):
        c = Canonical.constant(2.0, 3)
        for q in (0.01, 0.5, 0.99):
            assert c.percentile(q) == 2.0
            assert not math.isnan(c.percentile(q))

    def test_constant_cdf_step_at_mean(self):
        c = Canonical.constant(1.0, 1)
        assert c.cdf(1.0) == 1.0  # right-continuous step
        assert c.cdf(1.0 - 1e-9) == 0.0

    def test_max_of_constants_picks_larger(self):
        a = Canonical.constant(1.0, 2)
        b = Canonical.constant(3.0, 2)
        m, tightness = a.maximum_with_tightness(b)
        assert m.mean == 3.0
        assert m.sigma == 0.0
        assert tightness == 0.0

    def test_tied_constants_blend_cleanly(self):
        a = Canonical.constant(1.0, 2)
        m = a.maximum(a)
        assert m.mean == 1.0
        assert m.sigma == 0.0
        assert not math.isnan(m.mean)


def _rows_dotted_one_by_one(a, b):
    return np.array([a[i] @ b[i] for i in range(a.shape[0])])


class TestVecdot:
    """``np.vecdot`` (the wave kernel's row-wise dot product) gives, row
    for row, the bits of the 1-D ``a[i] @ b[i]`` the scalar fold used."""

    @staticmethod
    def assert_rowwise_bitwise(a, b):
        got = np.vecdot(a, b)
        want = _rows_dotted_one_by_one(a, b)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 18, 64])
    def test_random_rows(self, k):
        rng = np.random.default_rng(k)
        a = rng.standard_normal((40, k)) * 10.0 ** rng.integers(-12, 12, (40, 1))
        b = rng.standard_normal((40, k))
        self.assert_rowwise_bitwise(a, b)
        self.assert_rowwise_bitwise(a, a)

    @pytest.mark.parametrize("k", [1, 18, 64])
    def test_strided_sensitivity_view(self, k):
        # The kernel dots the sensitivity columns of packed rows.
        rng = np.random.default_rng(100 + k)
        rows = rng.standard_normal((26, 3 + k))
        sens = rows[:, 3:]
        self.assert_rowwise_bitwise(sens, sens)
        self.assert_rowwise_bitwise(sens[::2], sens[1::2])

    @pytest.mark.parametrize("k", [1, 18, 64])
    def test_zero_rows(self, k):
        a = np.zeros((3, k))
        a[1] = -0.0
        b = np.ones((3, k))
        b[2] = -1.0
        self.assert_rowwise_bitwise(a, b)
        self.assert_rowwise_bitwise(a, a)

    @pytest.mark.parametrize("k", [1, 18, 64])
    def test_subnormal_rows(self, k):
        rng = np.random.default_rng(200 + k)
        tiny = np.finfo(float).smallest_subnormal
        a = tiny * rng.integers(1, 1000, (6, k)).astype(float)
        b = rng.standard_normal((6, k))
        self.assert_rowwise_bitwise(a, b)
        self.assert_rowwise_bitwise(a, a)
        self.assert_rowwise_bitwise(a, np.full((6, k), 1e300))

    @pytest.mark.parametrize("k", [1, 18, 64])
    def test_mixed_sign_rows(self, k):
        rng = np.random.default_rng(300 + k)
        a = rng.standard_normal((30, k))
        a *= np.where(rng.random((30, k)) < 0.5, -1.0, 1.0) * 10.0 ** rng.integers(-8, 8, (30, k))
        b = -a[::-1].copy()
        self.assert_rowwise_bitwise(a, b)
        self.assert_rowwise_bitwise(a, a)
