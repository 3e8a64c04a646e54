"""Estimator interface and shared value objects for variance-reduced MC.

Every estimator is a strategy for answering the same question — *what
fraction of dies meets the target delay?* — by pushing sampled process
vectors through a timing kernel.  The interface splits the work exactly
along the sharded runner's process boundary:

* :meth:`YieldEstimator.make_shard_task` returns a **picklable** callable
  mapping one :class:`~repro.parallel.plan.SampleShard` to a small
  mergeable *shard state* (a few scalar sums, never per-die arrays);
* :meth:`YieldEstimator.finalize` merges the states **in shard-index
  order** into a :class:`YieldEstimate`.

Because the shard plan is a pure function of ``(n_samples, seed,
shard_size)`` and the merge is an ordered reduction of per-shard sums,
every estimator inherits the layer's bitwise ``n_jobs``-invariance for
free — the determinism harness asserts it per estimator.

The timing kernel is duck-typed (``.delays(samples)`` plus
``.relative_area``) rather than imported from :mod:`repro.timing`, so
this package has no timing dependency and the statistical tests can
substitute an analytically solvable kernel with a closed-form yield.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple

import numpy as np

from ..errors import EstimatorError
from ..parallel.plan import SampleShard, adaptive_shard_size
from ..variation.model import VariationModel


@dataclass(frozen=True)
class DieSamples:
    """Joint per-die process draws, in the timing kernel's duck shape.

    Structurally identical to :class:`repro.timing.mc.ProcessSamples`
    (the kernel only reads attributes), re-declared here so the
    estimator layer stays free of timing imports.
    """

    z: np.ndarray  # (n_samples, n_globals)
    delta_l: np.ndarray  # (n_samples, n_gates) [m]
    delta_vth: np.ndarray  # (n_samples, n_gates) [V]

    @property
    def n_samples(self) -> int:
        """Number of sampled dies."""
        return self.z.shape[0]


@dataclass(frozen=True)
class DelayMoments:
    """Canonical-form circuit-delay moments the smart estimators exploit.

    ``delay ~ mean + global_sens . z + indep_sigma * r`` — exactly the
    SSTA :class:`~repro.timing.canonical.Canonical` of the circuit
    delay, carried as plain arrays so shard tasks pickle cheaply.
    """

    mean: float
    global_sens: np.ndarray  # (n_globals,)
    indep_sigma: float

    @property
    def total_sigma(self) -> float:
        """Total standard deviation (globals + independent)."""
        gs = self.global_sens
        return math.sqrt(float(gs @ gs) + self.indep_sigma * self.indep_sigma)

    def analytic_yield(self, target_delay: float) -> float:
        """Exact P(delay <= target) under the linear-Gaussian model."""
        s = self.total_sigma
        if s <= 0.0:
            return 1.0 if target_delay >= self.mean else 0.0
        from scipy.special import ndtr

        return float(ndtr((target_delay - self.mean) / s))

    def conditional_yield(
        self, z: np.ndarray, target_delay: float
    ) -> np.ndarray:
        """P(delay <= target | global factors z), one value per die.

        This is the control variate: its per-die value is computable
        from the sampled ``z`` alone, and its expectation over ``z`` is
        :meth:`analytic_yield` — known *exactly*, which is what makes
        the regression adjustment unbiased.
        """
        slack = target_delay - self.mean - z @ self.global_sens
        if self.indep_sigma > 0.0:
            from scipy.special import ndtr

            return np.asarray(ndtr(slack / self.indep_sigma))
        return (slack >= 0.0).astype(float)


@dataclass(frozen=True)
class YieldEstimate:
    """A timing-yield estimate with its sampling uncertainty.

    ``n_effective`` is the estimator-agnostic quality figure: the plain
    binomial sample count whose standard error would match this
    estimate's — ``y(1-y)/stderr^2``.  Plain MC reports exactly
    ``n_samples``; a variance-reduced estimator reporting 10x that
    needed 10x fewer dies for the same confidence width.
    """

    estimator: str
    timing_yield: float
    std_error: float
    n_samples: int
    n_effective: float
    target_delay: float

    def confidence_interval(self, z: float = 3.0) -> Tuple[float, float]:
        """``z``-sigma interval, clamped to the physical [0, 1] range."""
        half = z * self.std_error
        return (
            max(0.0, self.timing_yield - half),
            min(1.0, self.timing_yield + half),
        )


@dataclass(frozen=True)
class EstimatorContext:
    """Everything a shard task needs, frozen before the fan-out.

    ``kernel`` is any object exposing ``.delays(samples) -> ndarray``
    and ``.relative_area`` (see module docstring); ``moments`` is
    required only by estimators with ``needs_moments`` set.
    """

    varmodel: VariationModel
    kernel: Any
    target_delay: float
    n_samples: int
    moments: Optional[DelayMoments] = None


class YieldEstimator(ABC):
    """Strategy interface for sharded timing-yield estimation."""

    #: Registry name, also stamped on every estimate.
    name: str = ""
    #: Whether the estimator needs SSTA :class:`DelayMoments` in context.
    needs_moments: bool = False

    @abstractmethod
    def make_shard_task(
        self, ctx: EstimatorContext
    ) -> Callable[[SampleShard], Any]:
        """A picklable shard -> mergeable-state callable."""

    @abstractmethod
    def finalize(
        self, states: Sequence[Any], ctx: EstimatorContext
    ) -> YieldEstimate:
        """Merge shard states (in shard-index order) into an estimate."""

    def plan_shard_size(self, n_samples: int) -> int:
        """Preferred shard size for an ``n_samples`` run.

        Must be a pure function of ``n_samples`` (never worker count or
        machine state) to preserve the layer's determinism contract.
        The default is the adaptive startup-amortizing size; estimators
        whose statistics depend on the shard structure (Sobol's
        one-replicate-per-shard CI) override it.
        """
        return adaptive_shard_size(n_samples)

    def require_moments(self, ctx: EstimatorContext) -> DelayMoments:
        """The context's moments, or a clear error for a plumbing bug."""
        if ctx.moments is None:
            raise EstimatorError(
                f"estimator '{self.name}' needs SSTA delay moments in its "
                "context; the driver should run SSTA when needs_moments is set"
            )
        return ctx.moments


def require_states(states: Sequence[Any], name: str) -> None:
    """Reject a merge over zero shard states (an orchestration bug)."""
    if len(states) == 0:
        raise EstimatorError(
            f"estimator '{name}' asked to finalize zero shard states"
        )


def binomial_equivalent_n(
    timing_yield: float, std_error: float, fallback: int
) -> float:
    """Plain-MC sample count matching this estimate's standard error.

    Degenerate estimates (zero stderr, or a yield pinned at 0/1 where
    the binomial variance vanishes) fall back to the actual sample
    count rather than reporting an infinite equivalent.
    """
    var = std_error * std_error
    if var <= 0.0 or not 0.0 < timing_yield < 1.0:
        return float(fallback)
    return timing_yield * (1.0 - timing_yield) / var
