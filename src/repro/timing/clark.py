"""Clark's moment-matching approximation for max of Gaussians.

C. E. Clark, "The greatest of a finite set of random variables" (1961) —
the workhorse of first-order canonical SSTA: given two jointly-Gaussian
variables, compute the exact first two moments of their max and the
*tightness probability* ``P(A > B)``, then re-approximate the max as
Gaussian with those moments.

:func:`max_moments` is elementwise over arrays, so canonical SSTA merges
a whole rank's fanin column in one call; each element runs the scalar
formula with :mod:`math` routines.  The moments are a handful of flops
per merge -- the O(k) sensitivity work around them is what canonical SSTA
batches (:func:`repro.timing.canonical.max_rows`) -- and :mod:`math`'s
``erf``/``exp`` keep every result bit-identical to the scalar definition:
NumPy/SciPy's vectorized versions differ in the last ulp on a sizeable
share of inputs.
"""

from __future__ import annotations

import math
from typing import Tuple, Union

import numpy as np

#: A scalar or a 1-D float array; :func:`max_moments` maps either to the same.
FloatOrArray = Union[float, np.ndarray]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

#: Relative floor: when the variance of the *difference* is this small
#: compared to the operand variances, the inputs are (numerically)
#: perfectly correlated with equal variance, and the max is whichever has
#: the larger mean.  The floor must be relative — delay variances live at
#: ~1e-24 s^2, far below any fixed absolute epsilon.
_THETA_REL_FLOOR = 1e-12


def norm_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def norm_pdf(x: float) -> float:
    """Standard normal PDF."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def max_moments(
    mean_a: FloatOrArray,
    var_a: FloatOrArray,
    mean_b: FloatOrArray,
    var_b: FloatOrArray,
    cov_ab: FloatOrArray,
) -> Tuple[FloatOrArray, FloatOrArray, FloatOrArray]:
    """Moments of ``max(A, B)`` for jointly Gaussian ``A, B``, elementwise.

    Arguments are scalars or equal-length 1-D arrays; scalars give float
    results, arrays give arrays.

    Returns
    -------
    (mean, variance, tightness):
        Exact mean and variance of the max, and the tightness probability
        ``T = P(A >= B)`` used to blend sensitivities in canonical SSTA.

    Notes
    -----
    With ``theta = sqrt(var_a + var_b - 2 cov_ab)`` (the sigma of ``A-B``)
    and ``x = (mean_a - mean_b)/theta``::

        E[max]   = mean_a*Phi(x) + mean_b*Phi(-x) + theta*phi(x)
        E[max^2] = (mean_a^2+var_a)*Phi(x) + (mean_b^2+var_b)*Phi(-x)
                   + (mean_a+mean_b)*theta*phi(x)

    When ``theta ~ 0`` the variables are (almost) perfectly correlated with
    equal variance: the max is simply whichever has the larger mean.
    """
    if np.ndim(mean_a) == 0:
        return _max_moments(mean_a, var_a, mean_b, var_b, cov_ab)
    rows = [
        _max_moments(*row)
        for row in zip(
            mean_a.tolist(), var_a.tolist(), mean_b.tolist(), var_b.tolist(),
            cov_ab.tolist(),
        )
    ]
    mean, variance, tightness = np.array(rows).reshape(-1, 3).T
    return mean, variance, tightness


def _max_moments(
    mean_a: float, var_a: float, mean_b: float, var_b: float, cov_ab: float
) -> Tuple[float, float, float]:
    theta_sq = var_a + var_b - 2.0 * cov_ab
    if theta_sq <= _THETA_REL_FLOOR * (var_a + var_b) or theta_sq <= 0.0:
        if mean_a >= mean_b:
            return mean_a, var_a, 1.0
        return mean_b, var_b, 0.0
    theta = math.sqrt(theta_sq)
    x = (mean_a - mean_b) / theta
    t = norm_cdf(x)
    phi = norm_pdf(x)
    mean = mean_a * t + mean_b * (1.0 - t) + theta * phi
    second = (
        (mean_a * mean_a + var_a) * t
        + (mean_b * mean_b + var_b) * (1.0 - t)
        + (mean_a + mean_b) * theta * phi
    )
    variance = max(second - mean * mean, 0.0)
    return mean, variance, t


def min_moments(
    mean_a: float,
    var_a: float,
    mean_b: float,
    var_b: float,
    cov_ab: float,
) -> Tuple[float, float, float]:
    """Moments of ``min(A, B)`` via ``min(A,B) = -max(-A,-B)``.

    Returns ``(mean, variance, tightness)`` with tightness ``P(A <= B)``.
    Used by required-time back-propagation.
    """
    neg_mean, variance, tightness = max_moments(-mean_a, var_a, -mean_b, var_b, cov_ab)
    return -neg_mean, variance, tightness
