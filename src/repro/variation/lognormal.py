"""Lognormal mathematics.

Because log-leakage is affine in the Gaussian process deviations, every
gate's leakage is lognormal and the chip total is a **sum of correlated
lognormals**.  This module provides:

* exact single-lognormal moments and percentiles,
* exact mean/variance of a correlated-lognormal sum (the correlation
  entering through shared global-factor loadings), evaluated over the
  groups of elements that share a loading row, and
* Wilkinson's approximation: matching a single lognormal to those two
  moments, which is what the paper-era statistical leakage literature uses
  to report full-chip leakage percentiles.

All functions work in SI and accept numpy arrays where it makes sense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import VariationError
from ..normal import ndtri


def lognormal_mean(mu: float, sigma: float) -> float:
    """Mean of ``exp(N(mu, sigma^2))``."""
    return math.exp(mu + 0.5 * sigma * sigma)


def lognormal_variance(mu: float, sigma: float) -> float:
    """Variance of ``exp(N(mu, sigma^2))``."""
    s2 = sigma * sigma
    return (math.exp(s2) - 1.0) * math.exp(2.0 * mu + s2)


def lognormal_percentile(mu: float, sigma: float, q: float) -> float:
    """The ``q``-quantile (0 < q < 1) of ``exp(N(mu, sigma^2))``."""
    if not 0.0 < q < 1.0:
        raise VariationError(f"quantile must be in (0,1), got {q}")
    return math.exp(mu + sigma * ndtri(q))


def lognormal_params_from_moments(mean: float, variance: float) -> Tuple[float, float]:
    """Wilkinson/Fenton moment matching: ``(mu, sigma)`` of the lognormal
    with the given mean and variance.

    Raises if the moments are not realizable (non-positive mean or negative
    variance).
    """
    if mean <= 0:
        raise VariationError(f"lognormal mean must be positive, got {mean}")
    if variance < 0:
        raise VariationError(f"variance must be non-negative, got {variance}")
    ratio = 1.0 + variance / (mean * mean)
    sigma2 = math.log(ratio)
    mu = math.log(mean) - 0.5 * sigma2
    return mu, math.sqrt(sigma2)


@dataclass(frozen=True)
class LognormalSummary:
    """Moment summary of a (sum of) lognormal distribution(s).

    ``mu``/``sigma`` are the Wilkinson-matched single-lognormal parameters;
    ``mean``/``std`` are the exact first two moments of the underlying sum.
    """

    mean: float
    std: float
    mu: float
    sigma: float

    @property
    def variance(self) -> float:
        """Exact variance of the sum."""
        return self.std * self.std

    def percentile(self, q: float) -> float:
        """Quantile of the Wilkinson-matched lognormal."""
        return lognormal_percentile(self.mu, self.sigma, q)

    def mean_plus_k_sigma(self, k: float) -> float:
        """The ``mean + k*std`` high-confidence point (exact moments)."""
        return self.mean + k * self.std

    def cdf(self, x: float) -> float:
        """CDF of the Wilkinson-matched lognormal at ``x``.

        At ``sigma == 0`` the sum is deterministic, ``exp(mu)``, and the
        CDF is a step there.
        """
        if x <= 0:
            return 0.0
        if self.sigma == 0.0:  # lint: ignore[RPR402] exact zero marks a deterministic sum, not a tolerance test
            return 1.0 if x >= math.exp(self.mu) else 0.0
        from scipy.special import ndtr

        return float(ndtr((math.log(x) - self.mu) / self.sigma))


def loading_groups(global_loadings: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group the rows of ``global_loadings`` that are bit-identical.

    Returns ``(first, inverse)``: ``first[g]`` is the index of group
    ``g``'s first row and ``inverse[i]`` the group of row ``i``, so
    ``global_loadings[first][inverse]`` rebuilds the rows.  Rows compare
    as raw bytes: ``-0.0`` and ``0.0`` fall in different groups, which
    only costs a group, never exactness.
    """
    rows = np.ascontiguousarray(global_loadings, dtype=float)
    n, k = rows.shape
    if k == 0:
        return np.zeros(1, dtype=np.intp), np.zeros(n, dtype=np.intp)
    keys = rows.view(np.dtype((np.void, rows.itemsize * k))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


class LognormalSum:
    """Exact moments of ``sum_i exp(G_i)`` with correlated Gaussians ``G_i``,
    for one fixed set of loading rows.

    Everything that depends on the loading rows alone is prepared once,
    here: the rows' squared norms, their :func:`loading_groups`, ``expm1``
    of the groups' Gram matrix and ``exp`` of its diagonal gathered per
    element.  :meth:`summary` then pays only for what depends on the
    means and independent sigmas, so a caller that evaluates the same
    rows at many states (an optimizer's objective) builds one and keeps
    it.  :func:`sum_of_lognormals` is one :meth:`summary` of a fresh one.

    Parameters
    ----------
    global_loadings:
        ``(n, k)`` array — loading of each ``G_i`` on the shared standard-
        normal global factors, so ``Cov(G_i, G_j) = L_i . L_j`` for
        ``i != j``.

    Notes
    -----
    Exact formulas:  ``E[X_i] = m_i = exp(mu_i + v_i/2)`` with
    ``v_i = |L_i|^2 + indep_i^2``;
    ``Cov(X_i, X_j) = m_i m_j (exp(c_ij) - 1)`` with
    ``c_ij = L_i . L_j (+ indep_i^2 if i = j)``.  Elements with equal
    loading rows (:func:`loading_groups`) share every off-diagonal
    ``c_ij``, so with ``M_g`` the sum of ``m_i`` over group ``g`` the
    double sum collapses to

        ``Var = M^T expm1(L_G L_G^T) M
        + sum_i m_i^2 exp(|L_i|^2) expm1(indep_i^2)``,

    the second term restoring the diagonal's independent part.  This is
    the covariance sum itself, not ``E[S^2] - E[S]^2``, so no
    cancellation amplifies rounding at small variance, and the work is
    ``O(n)`` plus a ``G x G`` Gram matrix.
    """

    def __init__(self, global_loadings: np.ndarray) -> None:
        loadings = np.atleast_2d(np.asarray(global_loadings, dtype=float))
        #: ``(n, k)``: the shape of the loading rows.
        self.shape = loadings.shape
        self._norms = np.einsum("ij,ij->i", loadings, loadings)
        first, self._inverse = loading_groups(loadings)
        #: Number of distinct loading rows the moments are summed over.
        self.n_groups = first.shape[0]
        group_rows = loadings[first]
        gram = group_rows @ group_rows.T
        self._shared = np.expm1(gram)
        self._own = np.exp(np.diagonal(gram))[self._inverse]

    def summary(
        self, log_means: np.ndarray, indep_sigmas: np.ndarray
    ) -> LognormalSummary:
        """Exact sum mean/std plus the Wilkinson-matched ``(mu, sigma)``.

        ``log_means`` are the ``(n,)`` Gaussian means ``mu_i`` (``ln`` of
        each element's nominal value) and ``indep_sigmas`` the ``(n,)``
        per-element independent sigmas, adding ``indep_i^2`` to the
        diagonal variance only.
        """
        log_means = np.asarray(log_means, dtype=float)
        indep_sigmas = np.asarray(indep_sigmas, dtype=float)
        n = log_means.shape[0]
        if n == 0:
            raise VariationError("empty lognormal sum")
        if self.shape[0] != n or indep_sigmas.shape[0] != n:
            raise VariationError(
                "shape mismatch: "
                f"{log_means.shape}, {self.shape}, {indep_sigmas.shape}"
            )
        var_i = self._norms + indep_sigmas**2
        means = np.exp(log_means + 0.5 * var_i)
        total_mean = float(means.sum())
        group_means = np.bincount(
            self._inverse, weights=means, minlength=self.n_groups
        )
        shared = float(group_means @ self._shared @ group_means)
        own = self._own * np.expm1(indep_sigmas**2)
        variance = max(shared + float(means**2 @ own), 0.0)
        mu, sigma = lognormal_params_from_moments(total_mean, variance)
        return LognormalSummary(
            mean=total_mean, std=math.sqrt(variance), mu=mu, sigma=sigma
        )


def sum_of_lognormals(
    log_means: np.ndarray,
    global_loadings: np.ndarray,
    indep_sigmas: np.ndarray,
) -> LognormalSummary:
    """Exact moments of ``sum_i exp(G_i)`` with correlated Gaussians ``G_i``.

    ``log_means`` ``(n,)`` are the Gaussian means, ``global_loadings``
    ``(n, k)`` the loadings on the shared global factors and
    ``indep_sigmas`` ``(n,)`` the independent sigmas: one
    :meth:`LognormalSum.summary` of ``LognormalSum(global_loadings)``
    (see there for the formulas).
    """
    return LognormalSum(global_loadings).summary(log_means, indep_sigmas)


def single_lognormal(log_mean: float, total_sigma: float) -> LognormalSummary:
    """Summary for one lognormal given its Gaussian parameters."""
    mean = lognormal_mean(log_mean, total_sigma)
    var = lognormal_variance(log_mean, total_sigma)
    return LognormalSummary(mean=mean, std=math.sqrt(var), mu=log_mean, sigma=total_sigma)
