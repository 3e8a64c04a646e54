"""Timing-yield utilities.

Yield curves over the SSTA canonical form and MC samples, the
point-mass helpers the histogram backend degrades to, and
:func:`estimate_timing_yield` — the sampled answer.  It runs a
registered :mod:`repro.mcstat` estimator on the sharded execution layer
(bitwise deterministic for any ``n_jobs``) and reports the yield with
its confidence interval, so analytic estimates can be checked against
sampling noise rather than against a bare point value.  The analytic
answer is ``get_engine(name).analyze(...).yield_at(T)`` (see
:mod:`repro.engines`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from ..errors import TimingError
from .canonical import Canonical

if TYPE_CHECKING:
    from ..circuit.netlist import Circuit
    from ..mcstat import YieldEstimate
    from ..variation.model import VariationModel
    from .graph import TimingConfig, TimingView


def yield_curve(
    circuit_delay: Canonical, targets: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Yield at each target — the CDF series for the validation figure."""
    targets_arr = np.asarray(list(targets), dtype=float)
    if targets_arr.size == 0:
        raise TimingError("empty target list")
    yields = np.array([circuit_delay.cdf(float(t)) for t in targets_arr])
    return targets_arr, yields


def degenerate_cdf(point: float, target: float) -> float:
    """CDF of a zero-variance (point-mass) delay: a unit step.

    The histogram backend collapses to a single lattice bin when a
    distribution carries no variance (empty sensitivity, one support
    point); the yield at any target is then exactly 0 or 1 — never the
    NaN a ``0/0`` sigma normalization would produce.
    """
    return 1.0 if target >= point else 0.0


def degenerate_quantile(point: float, q: float) -> float:
    """Quantile of a point-mass delay: the point itself for any ``q``."""
    if not 0.0 < q < 1.0:
        raise TimingError(f"quantile must be in (0,1), got {q}")
    return point


def estimate_timing_yield(
    circuit_or_view: "Circuit | TimingView",
    varmodel: "VariationModel",
    target_delay: float,
    n_samples: int = 4000,
    seed: int = 0,
    n_jobs: int = 1,
    estimator: str = "plain",
    config: "Optional[TimingConfig]" = None,
    shard_size: Optional[int] = None,
) -> "YieldEstimate":
    """Timing yield through a pluggable variance-reduced estimator.

    ``estimator`` picks one of the registered strategies (``plain``,
    ``isle``, ``sobol``, ``cv`` — see :mod:`repro.mcstat`), the
    moment-hungry ones get the SSTA canonical circuit delay
    automatically, and every strategy runs on the sharded layer, bitwise
    deterministic for any ``n_jobs``.  ``estimator="plain"`` counts the
    same dies :func:`~repro.timing.mc.run_monte_carlo_sta` draws at the
    same seed, so its yield equals that run's ``timing_yield``.
    ``shard_size`` overrides the adaptive plan — mostly for tests and for
    controlling the Sobol replicate count (one replicate per shard).
    """
    from ..mcstat import DelayMoments, EstimatorContext, get_estimator
    from ..parallel import SampleShardPlan, run_sharded
    from .graph import TimingView
    from .mc import TimingKernel
    from .ssta import run_ssta

    if target_delay <= 0:
        raise TimingError(f"target delay must be positive, got {target_delay}")
    est = get_estimator(estimator)
    view = (
        circuit_or_view
        if isinstance(circuit_or_view, TimingView)
        else TimingView(circuit_or_view, config)
    )
    if varmodel.n_gates != view.n_gates:
        raise TimingError(
            f"variation model covers {varmodel.n_gates} gates, "
            f"circuit has {view.n_gates}"
        )
    moments = None
    if est.needs_moments:
        delay = run_ssta(view, varmodel).circuit_delay
        moments = DelayMoments(
            mean=delay.mean,
            global_sens=np.asarray(delay.sens, dtype=float),
            indep_sigma=delay.indep,
        )
    ctx = EstimatorContext(
        varmodel=varmodel,
        kernel=TimingKernel.from_view(view),
        target_delay=target_delay,
        n_samples=n_samples,
        moments=moments,
    )
    size = shard_size if shard_size is not None else est.plan_shard_size(n_samples)
    plan = SampleShardPlan.build(n_samples, seed, shard_size=size)
    states = run_sharded(est.make_shard_task(ctx), plan, n_jobs=n_jobs)
    return est.finalize(states, ctx)


def empirical_yield_curve(
    delays: np.ndarray, targets: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of Monte-Carlo circuit delays at each target."""
    targets_arr = np.asarray(list(targets), dtype=float)
    if targets_arr.size == 0:
        raise TimingError("empty target list")
    delays = np.asarray(delays, dtype=float)
    if delays.size == 0:
        raise TimingError("empty delay sample set")
    yields = np.array([(delays <= t).mean() for t in targets_arr])
    return targets_arr, yields
