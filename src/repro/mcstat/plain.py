"""Plain Monte-Carlo yield estimator — the frequency baseline.

Each shard draws its dies through
:meth:`~repro.variation.model.VariationModel.sample` on its own
``SeedSequence`` child stream and reduces to an integer pass count, so
the merged yield is the *identical* fraction
:func:`~repro.timing.mc.run_monte_carlo_sta` reports on the same dies:
integer counts sum exactly, in any order, on any worker count.
:func:`binomial_estimate` turns a pass count into the estimate, so a
caller that already holds the per-die delays builds the same estimate
without a second Monte-Carlo pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..parallel.plan import SampleShard
from ..variation.model import VariationModel
from .base import (
    DieSamples,
    EstimatorContext,
    YieldEstimate,
    YieldEstimator,
    require_states,
)


def binomial_estimate(
    n: int, n_pass: int, target_delay: float
) -> YieldEstimate:
    """Frequency estimate ``n_pass / n`` with its binomial standard error."""
    y = n_pass / n
    return YieldEstimate(
        estimator=PlainEstimator.name,
        timing_yield=y,
        std_error=math.sqrt(max(y * (1.0 - y), 0.0) / n),
        n_samples=n,
        # By definition: n_effective is the plain-equivalent count.
        n_effective=float(n),
        target_delay=target_delay,
    )


@dataclass(frozen=True)
class PlainShardState:
    """One shard's reduction: die count and pass count."""

    n: int
    n_pass: int


@dataclass(frozen=True)
class _PlainShardTask:
    """Picklable per-shard plain-MC kernel."""

    varmodel: VariationModel
    kernel: Any
    target_delay: float

    def __call__(self, shard: SampleShard) -> PlainShardState:
        z, delta_l, delta_vth = self.varmodel.sample(
            shard.n_samples, shard.rng(), self.kernel.relative_area
        )
        delays = self.kernel.delays(DieSamples(z, delta_l, delta_vth))
        return PlainShardState(
            n=shard.n_samples,
            n_pass=int((delays <= self.target_delay).sum()),
        )


class PlainEstimator(YieldEstimator):
    """Crude frequency estimate with the exact binomial standard error."""

    name = "plain"
    needs_moments = False

    def make_shard_task(
        self, ctx: EstimatorContext
    ) -> Callable[[SampleShard], PlainShardState]:
        return _PlainShardTask(
            varmodel=ctx.varmodel,
            kernel=ctx.kernel,
            target_delay=ctx.target_delay,
        )

    def finalize(
        self, states: Sequence[PlainShardState], ctx: EstimatorContext
    ) -> YieldEstimate:
        require_states(states, self.name)
        return binomial_estimate(
            sum(s.n for s in states),
            sum(s.n_pass for s in states),
            ctx.target_delay,
        )
