"""Optimizer configuration.

One config object serves both the deterministic baseline and the
statistical optimizer, so experiments can hold everything equal except the
statistical treatment — which is the paper's controlled comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import OptimizationError


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the dual-Vth + sizing optimizers.

    Attributes
    ----------
    delay_margin:
        When no explicit ``target_delay`` is passed, the constraint is
        ``Tmax = delay_margin * Dmin`` with ``Dmin`` the minimum corner
        delay found by the sizing pass (the paper's "1.1x of minimum
        delay" style of constraint).
    yield_target:
        Timing-yield constraint ``P(delay <= Tmax) >= eta`` for the
        statistical optimizer.
    confidence_k:
        The statistical objective is the ``mean + k sigma`` point of the
        leakage distribution (1.645 ~ 95th percentile).
    corner_sigma:
        The deterministic flow signs off at an ``n sigma`` slow corner
        built from the *total* parameter sigmas — the classic corner
        pessimism the statistical flow removes.
    enable_vth / enable_sizing / enable_lbias:
        Move families available to the optimizers (ablations and the
        gate-length-biasing extension switch these).  Length biasing is
        off by default — it is the paper group's follow-on knob, not part
        of the original flow.
    lbias_step / lbias_max:
        Grid step and cap for deliberate channel-length increase [m].
    chunk_fraction / min_chunk:
        Accepted-move batch size between full (exact) constraint
        re-validations, as a fraction of gate count and an absolute floor.
    max_passes:
        Hard bound on candidate-generation passes.
    max_stalled_passes:
        Stop after this many consecutive passes that kept zero moves (the
        constraint is pinned; further passes only churn).
    slack_safety:
        Local-filter safety factor: a move must fit inside
        ``slack_safety *`` the local slack estimate to become a candidate.
    derate_rdf_with_size:
        Shared with the analyses: RDF sigma shrinks as 1/sqrt(size).
    n_jobs:
        Worker processes for any sharded Monte-Carlo evaluation the flow
        performs (0 = all CPUs, 1 = in-process).  Results are bitwise
        identical for any value — this is purely a wall-clock knob.
    yield_mc_samples / yield_mc_seed:
        When ``yield_mc_samples > 0`` the statistical flow's exact
        feasibility check evaluates the timing yield by sharded Monte
        Carlo at that sample count instead of the SSTA CDF — slower, but
        free of the Clark-max approximation.  The fixed seed (common
        random numbers) keeps every re-validation comparable, so the
        greedy accept/rollback decisions stay deterministic.  Requires
        ``timing_engine == "clark"``: the sampled check replaces the
        engine, so any other engine would go unused.
    yield_estimator:
        Which variance-reduced MC strategy the yield check uses when
        ``yield_mc_samples > 0`` (see :mod:`repro.mcstat`): ``plain``
        (the frequency estimate), ``isle``, ``sobol``, or ``cv``.
        Every choice is bitwise deterministic for any ``n_jobs``.
    timing_engine:
        Statistical-timing engine the yield check reads while
        ``yield_mc_samples == 0`` (see :mod:`repro.engines`): ``clark``
        (canonical SSTA), ``histogram``, or ``mc``.
    """

    delay_margin: float = 1.10
    yield_target: float = 0.95
    confidence_k: float = 1.645
    corner_sigma: float = 3.0
    enable_vth: bool = True
    enable_sizing: bool = True
    enable_lbias: bool = False
    lbias_step: float = 2e-9
    lbias_max: float = 8e-9
    chunk_fraction: float = 0.04
    min_chunk: int = 8
    max_passes: int = 300
    max_stalled_passes: int = 5
    slack_safety: float = 0.9
    derate_rdf_with_size: bool = True
    n_jobs: int = 1
    yield_mc_samples: int = 0
    yield_mc_seed: int = 0
    yield_estimator: str = "plain"
    timing_engine: str = "clark"

    def __post_init__(self) -> None:
        if self.delay_margin < 1.0:
            raise OptimizationError(
                f"delay_margin below 1 is unsatisfiable, got {self.delay_margin}"
            )
        if not 0.0 < self.yield_target < 1.0:
            raise OptimizationError(
                f"yield_target must be in (0,1), got {self.yield_target}"
            )
        if self.confidence_k < 0:
            raise OptimizationError(f"confidence_k must be >= 0, got {self.confidence_k}")
        if self.corner_sigma < 0:
            raise OptimizationError(f"corner_sigma must be >= 0, got {self.corner_sigma}")
        if not (self.enable_vth or self.enable_sizing or self.enable_lbias):
            raise OptimizationError("at least one move family must be enabled")
        if self.enable_lbias and not 0 < self.lbias_step <= self.lbias_max:
            raise OptimizationError(
                "need 0 < lbias_step <= lbias_max for length biasing"
            )
        if not 0.0 < self.chunk_fraction <= 1.0:
            raise OptimizationError(
                f"chunk_fraction must be in (0,1], got {self.chunk_fraction}"
            )
        if self.min_chunk < 1:
            raise OptimizationError(f"min_chunk must be >= 1, got {self.min_chunk}")
        if self.max_passes < 1:
            raise OptimizationError(f"max_passes must be >= 1, got {self.max_passes}")
        if self.max_stalled_passes < 1:
            raise OptimizationError(
                f"max_stalled_passes must be >= 1, got {self.max_stalled_passes}"
            )
        if not 0.0 < self.slack_safety <= 1.0:
            raise OptimizationError(
                f"slack_safety must be in (0,1], got {self.slack_safety}"
            )
        if self.n_jobs < 0:
            raise OptimizationError(
                f"n_jobs must be >= 0 (0 = all CPUs), got {self.n_jobs}"
            )
        if self.yield_mc_samples < 0:
            raise OptimizationError(
                f"yield_mc_samples must be >= 0, got {self.yield_mc_samples}"
            )
        from ..mcstat import ESTIMATOR_NAMES

        if self.yield_estimator not in ESTIMATOR_NAMES:
            raise OptimizationError(
                f"yield_estimator must be one of {ESTIMATOR_NAMES}, "
                f"got {self.yield_estimator!r}"
            )
        from ..engines import ENGINE_NAMES

        if self.timing_engine not in ENGINE_NAMES:
            raise OptimizationError(
                f"timing_engine must be one of {ENGINE_NAMES}, "
                f"got {self.timing_engine!r}"
            )
        if self.yield_mc_samples > 0 and self.timing_engine != "clark":
            raise OptimizationError(
                f"timing_engine {self.timing_engine!r} is unused when "
                f"yield_mc_samples > 0 (got {self.yield_mc_samples}); "
                "sampled yield checks need timing_engine 'clark'"
            )
