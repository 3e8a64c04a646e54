"""Clark's moment-matching approximation for max of Gaussians.

C. E. Clark, "The greatest of a finite set of random variables" (1961) —
the workhorse of first-order canonical SSTA: given two jointly-Gaussian
variables, compute the exact first two moments of their max and the
*tightness probability* ``P(A > B)``, then re-approximate the max as
Gaussian with those moments.

:func:`max_moments` is the scalar formula with :mod:`math` routines.  Canonical
SSTA calls it once per merged row: the moments are a handful of flops per
merge -- the O(k) sensitivity work around them is what canonical SSTA
batches (:func:`repro.timing.canonical.clark_merge`) -- and :mod:`math`'s
``erf``/``exp`` keep every result bit-identical to the scalar definition:
NumPy/SciPy's vectorized versions differ in the last ulp on a sizeable
share of inputs.
"""

from __future__ import annotations

import math
from typing import Tuple

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
    mean_a: float, var_a: float, mean_b: float, var_b: float, cov_ab: float
) -> Tuple[float, float, float]:
    """Moments of ``max(A, B)`` for jointly Gaussian scalars ``A, B``.

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
    theta_sq = var_a + var_b - 2.0 * cov_ab
    if theta_sq <= _THETA_REL_FLOOR * (var_a + var_b) or theta_sq <= 0.0:
        if mean_a >= mean_b:
            return mean_a, var_a, 1.0
        return mean_b, var_b, 0.0
    theta = math.sqrt(theta_sq)
    x = (mean_a - mean_b) / theta
    # norm_cdf(x) and norm_pdf(x), inline: SSTA calls this once per merged row.
    t = 0.5 * (1.0 + math.erf(x / _SQRT2))
    phi = _INV_SQRT_2PI * math.exp(-0.5 * x * x)
    mean = mean_a * t + mean_b * (1.0 - t) + theta * phi
    second = (
        (mean_a * mean_a + var_a) * t
        + (mean_b * mean_b + var_b) * (1.0 - t)
        + (mean_a + mean_b) * theta * phi
    )
    variance = second - mean * mean
    return mean, 0.0 if variance < 0.0 else variance, t


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
