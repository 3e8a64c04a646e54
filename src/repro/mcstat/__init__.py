"""Variance-reduced Monte-Carlo yield estimators.

Four interchangeable, shard-mergeable strategies for estimating timing
yield, all riding the deterministic sharded execution layer
(:mod:`repro.parallel`) so every one is bitwise-identical across worker
counts:

* ``plain`` — the frequency estimate with its exact binomial error;
* ``isle`` — ISLE-style importance sampling: a defensive-mixture
  proposal shifted toward the SSTA failure boundary with
  self-normalized likelihood weights (:mod:`.isle`);
* ``sobol`` — randomized scrambled-Sobol quasi-MC, one independently
  scrambled replicate per shard, CI from the between-replicate spread
  (:mod:`.sobol`);
* ``cv`` — a control variate regressing the MC pass indicator against
  the SSTA conditional yield, whose expectation is known exactly
  (:mod:`.control`).

The driver that wires these to real circuits lives in
:func:`repro.timing.yield_est.estimate_timing_yield`; this package
itself depends only on the variation model and the shard plan, which is
what lets the statistical-correctness tests run the estimators against
analytically solvable toy kernels.
"""

from ..errors import EstimatorError
from .base import (
    DelayMoments,
    DieSamples,
    EstimatorContext,
    YieldEstimate,
    YieldEstimator,
    binomial_equivalent_n,
)
from .control import ControlVariateEstimator
from .isle import IsleEstimator
from .plain import PlainEstimator, binomial_estimate
from .sobol import SobolEstimator

#: Registry order is presentation order (baseline first).
ESTIMATOR_NAMES = ("plain", "isle", "sobol", "cv")

_ESTIMATORS = {
    "plain": PlainEstimator,
    "isle": IsleEstimator,
    "sobol": SobolEstimator,
    "cv": ControlVariateEstimator,
}


def get_estimator(name: str) -> YieldEstimator:
    """Instantiate a registered estimator by name."""
    try:
        cls = _ESTIMATORS[name]
    except KeyError:
        raise EstimatorError(
            f"unknown estimator {name!r}; choose from "
            f"{', '.join(ESTIMATOR_NAMES)}"
        ) from None
    return cls()


__all__ = [
    "ControlVariateEstimator",
    "DelayMoments",
    "DieSamples",
    "ESTIMATOR_NAMES",
    "EstimatorContext",
    "EstimatorError",
    "IsleEstimator",
    "PlainEstimator",
    "SobolEstimator",
    "YieldEstimate",
    "YieldEstimator",
    "binomial_equivalent_n",
    "binomial_estimate",
    "get_estimator",
]
