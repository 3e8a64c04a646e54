"""ISLE-style importance sampling for timing yield.

Rare timing failures starve plain MC: at 99% yield only one die in a
hundred carries any information about the failure tail.  Following the
ISLE recipe (importance sampling with stochastic logical effort), we
shift the *global* process factors toward the failure boundary the SSTA
canonical form predicts and reweight each die by its likelihood ratio:

* **Shift.**  ``delay ~ mean + gs . z + indep * r``, so the failure
  half-space is ``gs . z > T - mean``; the FORM-style shift
  ``mu = gs * (T - mean) / sigma_total^2`` points at the most probable
  failure region (norm-clipped so an absurdly safe target cannot push
  the proposal into numerically dead tails).
* **Defensive mixture.**  The proposal draws each die from the nominal
  ``phi(z)`` with probability ``1 - lambda`` and from the shifted
  ``phi(z - mu)`` with probability ``lambda``.  The resulting weights
  ``w = phi / ((1-lambda) phi + lambda phi_shifted)`` are bounded by
  ``1/(1-lambda)`` — no weight blow-up anywhere in sample space.
* **Self-normalization.**  ``y_hat = sum(w f) / sum(w)`` with the
  delta-method standard error; the per-shard state carries only five
  mergeable sums.

When the computed shift is exactly zero (target at the SSTA mean, or a
variation model with no global delay sensitivity) the proposal *is* the
nominal distribution; the shard task then takes the plain draw path
verbatim, making the estimator reduce to plain MC bit for bit — a
property-tested invariant, not just a comment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from ..errors import EstimatorError
from ..parallel.plan import SampleShard
from ..variation.model import VariationModel
from .base import (
    DelayMoments,
    DieSamples,
    EstimatorContext,
    YieldEstimate,
    YieldEstimator,
    binomial_equivalent_n,
    require_states,
)

#: Cap on the shift magnitude |mu| in z-space.  Four sigma covers every
#: practically resolvable failure probability (~3e-5) while keeping the
#: nominal-component weights comfortably away from underflow.
SHIFT_CLIP = 4.0

#: Default mixture weight on the shifted component.  An even split is
#: the standard defensive choice: half the dies probe the failure
#: region, half anchor the normalization near the nominal mass.
DEFAULT_MIXTURE = 0.5


def failure_shift(moments: DelayMoments, target_delay: float) -> np.ndarray:
    """FORM-style mean shift of the global factors toward failure.

    Returns the zero vector when the delay carries no global
    sensitivity or the target sits exactly at the mean — the cases
    where importance sampling has nothing to aim at.
    """
    gs = np.asarray(moments.global_sens, dtype=float)
    var = float(gs @ gs) + moments.indep_sigma * moments.indep_sigma
    if var <= 0.0:
        return np.zeros_like(gs)
    slack = target_delay - moments.mean
    with np.errstate(invalid="ignore"):
        mu = gs * (slack / var)
    if not np.all(np.isfinite(mu)):
        # A variance near the subnormal range makes slack / var overflow.
        # Size the shift in log space instead: past the clip it is the
        # clip along the sensitivities, and within it (gs * slack) / var
        # stays finite.
        norm_gs = math.hypot(*gs)
        if norm_gs == 0.0:  # lint: ignore[RPR402] exact zero: no global direction to aim along
            return np.zeros_like(gs)
        log_norm = math.log(norm_gs) + math.log(abs(slack)) - math.log(var)
        if log_norm > math.log(SHIFT_CLIP):
            mu = gs / norm_gs * math.copysign(SHIFT_CLIP, slack)
        else:
            mu = gs * slack / var
    norm_mu = math.sqrt(float(mu @ mu))
    if norm_mu > SHIFT_CLIP:
        mu = mu * (SHIFT_CLIP / norm_mu)
    return mu


def log_likelihood_ratio(z: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """``log[ phi(z - shift) / phi(z) ] = z . shift - |shift|^2 / 2``."""
    z = np.asarray(z, dtype=float)
    shift = np.asarray(shift, dtype=float)
    return z @ shift - 0.5 * float(shift @ shift)


def mixture_weights(
    z: np.ndarray, shift: np.ndarray, lam: float
) -> np.ndarray:
    """Importance weights ``phi(z) / q(z)`` for the defensive mixture.

    Evaluated in log space via ``logaddexp`` so a far-tail die cannot
    overflow the shifted likelihood; the result is always finite,
    positive, and bounded by ``1 / (1 - lam)``.
    """
    if not 0.0 < lam < 1.0:
        raise EstimatorError(
            f"mixture weight must be in (0, 1) exclusive, got {lam}"
        )
    log_l = log_likelihood_ratio(z, shift)
    log_q_over_p = np.logaddexp(math.log1p(-lam), math.log(lam) + log_l)
    return np.exp(-log_q_over_p)


@dataclass(frozen=True)
class IsleShardState:
    """One shard's weighted reduction (all sums merge by addition)."""

    n: int
    sum_w: float
    sum_w2: float
    sum_wf: float
    sum_w2f: float


@dataclass(frozen=True)
class _IsleShardTask:
    """Picklable per-shard importance-sampling kernel."""

    varmodel: VariationModel
    kernel: Any
    target_delay: float
    shift: np.ndarray
    lam: float

    def __call__(self, shard: SampleShard) -> IsleShardState:
        n = shard.n_samples
        if not np.any(self.shift):
            # Proposal == nominal: take the exact plain draw path so the
            # sampled dies (and hence the estimate) match plain MC bitwise.
            z, delta_l, delta_vth = self.varmodel.sample(
                n, shard.rng(), self.kernel.relative_area
            )
            weights = np.ones(n)
        else:
            rng = shard.rng()
            in_shifted = rng.random(n) < self.lam
            normals = rng.standard_normal((n, self.varmodel.n_normals))
            k = self.shift.size
            normals[:, :k][in_shifted] += self.shift
            z, delta_l, delta_vth = self.varmodel.sample_from_normals(
                normals, self.kernel.relative_area
            )
            weights = mixture_weights(z, self.shift, self.lam)
        delays = self.kernel.delays(DieSamples(z, delta_l, delta_vth))
        f = (delays <= self.target_delay).astype(float)
        w2 = weights * weights
        return IsleShardState(
            n=n,
            sum_w=float(weights.sum()),
            sum_w2=float(w2.sum()),
            sum_wf=float((weights * f).sum()),
            sum_w2f=float((w2 * f).sum()),
        )


class IsleEstimator(YieldEstimator):
    """Self-normalized defensive-mixture importance sampling."""

    name = "isle"
    needs_moments = True

    def __init__(self, lam: float = DEFAULT_MIXTURE) -> None:
        if not 0.0 < lam < 1.0:
            raise EstimatorError(
                f"mixture weight must be in (0, 1) exclusive, got {lam}"
            )
        self.lam = lam

    def make_shard_task(
        self, ctx: EstimatorContext
    ) -> Callable[[SampleShard], IsleShardState]:
        moments = self.require_moments(ctx)
        return _IsleShardTask(
            varmodel=ctx.varmodel,
            kernel=ctx.kernel,
            target_delay=ctx.target_delay,
            shift=failure_shift(moments, ctx.target_delay),
            lam=self.lam,
        )

    def finalize(
        self, states: Sequence[IsleShardState], ctx: EstimatorContext
    ) -> YieldEstimate:
        require_states(states, self.name)
        n = sum(s.n for s in states)
        sum_w = sum(s.sum_w for s in states)
        sum_w2 = sum(s.sum_w2 for s in states)
        sum_wf = sum(s.sum_wf for s in states)
        sum_w2f = sum(s.sum_w2f for s in states)
        y = sum_wf / sum_w
        # Delta-method variance of the self-normalized ratio estimator:
        # sum w^2 (f - y)^2 / (sum w)^2, expanded with f binary.
        centered = sum_w2f * (1.0 - 2.0 * y) + y * y * sum_w2
        std_error = math.sqrt(max(centered, 0.0)) / sum_w
        return YieldEstimate(
            estimator=self.name,
            timing_yield=y,
            std_error=std_error,
            n_samples=n,
            n_effective=binomial_equivalent_n(y, std_error, n),
            target_delay=ctx.target_delay,
        )
