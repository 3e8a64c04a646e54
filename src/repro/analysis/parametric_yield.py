"""Joint (frequency, leakage) parametric yield.

The paper's framing ("a fast die is a leaky die") extends naturally to
binning: a die is *sellable* only if it both meets timing and stays under
a leakage (power/thermal) cap.  Because delay and leakage are driven by
the same process parameters with opposite signs, the two requirements
fight each other, and the sellable fraction is far below the product of
the marginal yields.

Two estimators are provided:

* :func:`mc_parametric_yield` — golden: evaluate both metrics on the same
  Monte-Carlo dies and count;
* :func:`analytic_parametric_yield` — a bivariate-Gaussian approximation:
  circuit delay is Gaussian (canonical SSTA), log-leakage is approximately
  Gaussian (Wilkinson), and their correlation follows from the shared
  global factors (mean-weighted leakage loadings against the delay
  sensitivity vector).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np
from scipy.special import ndtr

from ..circuit.netlist import Circuit
from ..errors import PowerError, TimingError
from ..power.mc import run_monte_carlo_leakage
from ..power.statistical import gate_log_leakage_terms
from ..timing.mc import run_monte_carlo_sta
from ..timing.ssta import run_ssta
from ..variation.lognormal import lognormal_params_from_moments, sum_of_lognormals
from ..variation.model import VariationModel


@dataclass(frozen=True)
class ParametricYield:
    """Joint and marginal yields for one (Tmax, leakage-cap) pair."""

    timing_yield: float
    leakage_yield: float
    joint_yield: float
    correlation: float  # corr(delay, log leakage): negative by physics

    @property
    def independence_gap(self) -> float:
        """Joint yield minus the independence-assumption product.

        Negative correlation makes the joint yield *lower* than the
        product of marginals — the binning loss naive analyses miss.
        """
        return self.joint_yield - self.timing_yield * self.leakage_yield


def mc_parametric_yield(
    circuit: Circuit,
    varmodel: VariationModel,
    target_delay: float,
    leakage_cap: float,
    n_samples: int = 4000,
    seed: int = 0,
    probs: Optional[Mapping[str, float]] = None,
    n_jobs: int = 1,
) -> ParametricYield:
    """Monte-Carlo joint yield on shared dies.

    ``leakage_cap`` is a power cap [W].  The timing draw shards over
    ``n_jobs`` workers (dies come back for the shared-sample leakage
    pass, which is a cheap vectorized sweep).
    """
    if target_delay <= 0:
        raise TimingError(f"target delay must be positive, got {target_delay}")
    if leakage_cap <= 0:
        raise PowerError(f"leakage cap must be positive, got {leakage_cap}")
    timing = run_monte_carlo_sta(
        circuit, varmodel, n_samples=n_samples, seed=seed, n_jobs=n_jobs
    )
    leak = run_monte_carlo_leakage(
        circuit, varmodel, samples=timing.samples, probs=probs
    )
    meets_t = timing.circuit_delays <= target_delay
    meets_l = leak.powers <= leakage_cap
    rho = float(
        np.corrcoef(timing.circuit_delays, np.log(leak.powers))[0, 1]
    )
    return ParametricYield(
        timing_yield=float(meets_t.mean()),
        leakage_yield=float(meets_l.mean()),
        joint_yield=float((meets_t & meets_l).mean()),
        correlation=rho,
    )


def _z_score(x: float, mean: float, sigma: float) -> float:
    """Standard score of ``x``; at ``sigma == 0`` a step at ``mean``.

    A deterministic quantity meets ``x`` exactly when ``x >= mean``, so
    the score is ``+inf`` there and ``-inf`` below.
    """
    if sigma:
        return (x - mean) / sigma
    return math.inf if x >= mean else -math.inf


def analytic_parametric_yield(
    circuit: Circuit,
    varmodel: VariationModel,
    target_delay: float,
    leakage_cap: float,
    probs: Optional[Mapping[str, float]] = None,
) -> ParametricYield:
    """Bivariate-Gaussian joint yield approximation.

    Delay ``D`` is the canonical SSTA Gaussian; ``ln(leakage)`` is the
    Wilkinson-matched Gaussian; their covariance uses the mean-weighted
    average of the per-gate log-leakage loadings against the delay
    sensitivity vector — exact for the sum's first-order behaviour.
    """
    if target_delay <= 0:
        raise TimingError(f"target delay must be positive, got {target_delay}")
    if leakage_cap <= 0:
        raise PowerError(f"leakage cap must be positive, got {leakage_cap}")
    ssta = run_ssta(circuit, varmodel)
    delay = ssta.circuit_delay

    log_means, loadings, indep = gate_log_leakage_terms(circuit, varmodel, probs)
    summary = sum_of_lognormals(log_means, loadings, indep)
    vdd = circuit.library.tech.vdd
    mu_l, sigma_l = lognormal_params_from_moments(
        summary.mean * vdd, (summary.std * vdd) ** 2
    )

    # Mean-weighted aggregate loading of ln(total leakage) on the globals.
    var_i = np.einsum("ij,ij->i", loadings, loadings) + indep**2
    gate_means = np.exp(log_means + 0.5 * var_i)
    weights = gate_means / gate_means.sum()
    agg_loading = weights @ loadings
    cov_dl = float(delay.sens @ agg_loading)
    denom = delay.sigma * sigma_l
    rho = 0.0 if denom == 0 else max(-0.999, min(0.999, cov_dl / denom))

    z_t = _z_score(target_delay, delay.mean, delay.sigma)
    z_l = _z_score(math.log(leakage_cap), mu_l, sigma_l)
    timing_yield = float(ndtr(z_t))
    leakage_yield = float(ndtr(z_l))
    from scipy import stats

    joint = float(
        stats.multivariate_normal(
            mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]]
        ).cdf([z_t, z_l])
    )
    return ParametricYield(
        timing_yield=timing_yield,
        leakage_yield=leakage_yield,
        joint_yield=joint,
        correlation=rho,
    )
