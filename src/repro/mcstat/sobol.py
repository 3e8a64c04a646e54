"""Randomized scrambled-Sobol quasi-Monte-Carlo yield estimator.

Plain MC error shrinks like ``n^-1/2`` no matter how smooth the
integrand; a low-discrepancy point set can do much better when the
effective dimension is low — and circuit timing yield is dominated by
the handful of shared global factors, which is why the variation
model's normal-block layout puts them in the *first* Sobol dimensions
(see :attr:`~repro.variation.model.VariationModel.n_normals`).

The sharding doubles as the randomization: each shard draws one
**independently scrambled** Sobol replicate seeded from its own
``SeedSequence`` child stream (Owen-scrambled, so each replicate is an
unbiased estimate in its own right), and the spread *between* replicate
means yields the confidence interval — the standard randomized-QMC
construction.  Points are drawn in full ``2^m`` blocks and truncated,
keeping the net's balance properties for the power-of-two shard sizes
the planner produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np
from scipy.special import ndtri

from ..parallel.plan import SampleShard
from ..variation.model import VariationModel
from .base import (
    DieSamples,
    EstimatorContext,
    YieldEstimate,
    YieldEstimator,
    binomial_equivalent_n,
    require_states,
)

#: Clamp on the scrambled uniforms before the inverse-normal map.  One
#: double-precision ulp away from {0, 1} keeps ``ndtri`` finite
#: (|z| < 8.3) without measurably perturbing the point set.
_UNIFORM_CLIP = float(np.finfo(np.float64).eps)

#: Replicate count the shard planner aims for.  The between-replicate
#: variance has ``R - 1`` degrees of freedom, so ~16 replicates give an
#: honest CI while each replicate stays large enough for the net's
#: equidistribution to bite.
TARGET_REPLICATES = 16

#: Floor on the points per replicate — below this a Sobol net has no
#: advantage over plain draws and the CI would be all noise.
MIN_REPLICATE_SIZE = 128


def _sobol_normals(
    n: int, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """``n`` standard-normal rows from one scrambled Sobol replicate."""
    from scipy.stats import qmc

    engine = qmc.Sobol(d=dim, scramble=True, seed=rng)
    m = max(0, math.ceil(math.log2(n)))
    uniforms = engine.random_base2(m)[:n]
    uniforms = np.clip(uniforms, _UNIFORM_CLIP, 1.0 - _UNIFORM_CLIP)
    return np.asarray(ndtri(uniforms))


@dataclass(frozen=True)
class SobolShardState:
    """One replicate's reduction: die count and pass count."""

    n: int
    n_pass: int


@dataclass(frozen=True)
class _SobolShardTask:
    """Picklable per-shard scrambled-Sobol kernel."""

    varmodel: VariationModel
    kernel: Any
    target_delay: float

    def __call__(self, shard: SampleShard) -> SobolShardState:
        normals = _sobol_normals(
            shard.n_samples, self.varmodel.n_normals, shard.rng()
        )
        z, delta_l, delta_vth = self.varmodel.sample_from_normals(
            normals, self.kernel.relative_area
        )
        delays = self.kernel.delays(DieSamples(z, delta_l, delta_vth))
        return SobolShardState(
            n=shard.n_samples,
            n_pass=int((delays <= self.target_delay).sum()),
        )


class SobolEstimator(YieldEstimator):
    """Scrambled Sobol with between-replicate CI (one replicate/shard)."""

    name = "sobol"
    needs_moments = False

    def plan_shard_size(self, n_samples: int) -> int:
        """Power-of-two replicates sized for ~:data:`TARGET_REPLICATES`.

        A pure function of ``n_samples``: the same run always splits
        into the same replicates regardless of worker count, so the
        replicate-based CI — like the estimate itself — is bitwise
        reproducible.
        """
        if n_samples < 2 * MIN_REPLICATE_SIZE:
            return max(n_samples, 1)
        size = 2 ** int(math.floor(math.log2(n_samples / TARGET_REPLICATES)))
        return max(MIN_REPLICATE_SIZE, size)

    def make_shard_task(
        self, ctx: EstimatorContext
    ) -> Callable[[SampleShard], SobolShardState]:
        return _SobolShardTask(
            varmodel=ctx.varmodel,
            kernel=ctx.kernel,
            target_delay=ctx.target_delay,
        )

    def finalize(
        self, states: Sequence[SobolShardState], ctx: EstimatorContext
    ) -> YieldEstimate:
        require_states(states, self.name)
        n = sum(s.n for s in states)
        y = sum(s.n_pass for s in states) / n
        n_replicates = len(states)
        if n_replicates >= 2:
            # Sample-weighted between-replicate variance of the pooled
            # mean; each scrambled replicate is independently unbiased.
            var = sum(
                (s.n / n) ** 2 * (s.n_pass / s.n - y) ** 2 for s in states
            ) * (n_replicates / (n_replicates - 1))
            std_error = math.sqrt(var)
        else:
            # A single replicate carries no spread information; report
            # the (conservative) binomial error instead of zero.
            std_error = math.sqrt(max(y * (1.0 - y), 0.0) / n)
        return YieldEstimate(
            estimator=self.name,
            timing_yield=y,
            std_error=std_error,
            n_samples=n,
            n_effective=binomial_equivalent_n(y, std_error, n),
            target_delay=ctx.target_delay,
        )
