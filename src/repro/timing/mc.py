"""Monte-Carlo timing (golden reference for SSTA).

Samples whole dies from the :class:`~repro.variation.model.VariationModel`
and runs a batched STA: one NumPy pass per levelized topological rank
(the view's :class:`~repro.timing.graph.LevelSchedule`), with every
sampled die and every gate of a rank carried together as matrices.  Gate
delays move with process exactly as the analytic models say (same
first-order log-resistance shift with the quadratic correction), so
MC-vs-SSTA differences isolate the
*statistical* approximations (Clark max, collapsed reconvergent
randomness) rather than device-model gaps.

Sampling runs on the sharded execution layer (:mod:`repro.parallel`):
dies are drawn shard by shard from independent ``SeedSequence`` child
streams, so the distribution — and every reported statistic — is bitwise
identical for any ``n_jobs``.  Workers reduce each shard to its scalar
circuit delays plus streaming moments; the per-gate sample matrices stay
in-process unless ``keep_samples`` asks for the dies back.

The drawn samples are exposed so leakage MC can run on the *same dies*,
preserving the delay/leakage correlation that statistical optimization
exploits (fast dies leak most).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import TimingError
from ..parallel import (
    SampleShardPlan,
    SampleStatistics,
    ShardStats,
    adaptive_shard_size,
    merge_shard_stats,
    run_sharded,
)
from ..parallel.plan import SampleShard
from ..variation.model import VariationModel
from .graph import LevelSchedule, TimingConfig, TimingView


@dataclass(frozen=True)
class ProcessSamples:
    """Joint per-die process draws shared by timing and leakage MC."""

    z: np.ndarray  # (n_samples, n_globals)
    delta_l: np.ndarray  # (n_samples, n_gates) [m]
    delta_vth: np.ndarray  # (n_samples, n_gates) [V]

    @property
    def n_samples(self) -> int:
        """Number of sampled dies."""
        return self.z.shape[0]


def _draw_shard(
    varmodel: VariationModel,
    shard: SampleShard,
    relative_area: np.ndarray | float,
) -> ProcessSamples:
    """Draw one shard's dies from its independent child stream."""
    z, delta_l, delta_vth = varmodel.sample(
        shard.n_samples, shard.rng(), relative_area
    )
    return ProcessSamples(z=z, delta_l=delta_l, delta_vth=delta_vth)


def _concat_samples(parts: List[ProcessSamples]) -> ProcessSamples:
    """Stack per-shard draws back into one sample set (shard order)."""
    return ProcessSamples(
        z=np.concatenate([p.z for p in parts]),
        delta_l=np.concatenate([p.delta_l for p in parts]),
        delta_vth=np.concatenate([p.delta_vth for p in parts]),
    )


def draw_samples(
    varmodel: VariationModel,
    n_samples: int,
    seed: int = 0,
    relative_area: np.ndarray | float = 1.0,
) -> ProcessSamples:
    """Draw dies from the variation model (deterministic per seed).

    Draws shard by shard through :class:`SampleShardPlan`, so the result
    is the exact sample set the sharded MC entry points evaluate — a
    precomputed-``samples`` run and an internally-drawn run at the same
    seed see the same dies.
    """
    plan = SampleShardPlan.build(
        n_samples, seed, shard_size=adaptive_shard_size(n_samples)
    )
    return _concat_samples(
        [_draw_shard(varmodel, shard, relative_area) for shard in plan.shards]
    )


@dataclass(frozen=True)
class MCTimingResult:
    """Sampled circuit-delay distribution."""

    circuit_delays: np.ndarray  # (n_samples,)
    samples: Optional[ProcessSamples]
    stats: Optional[SampleStatistics] = None

    @property
    def mean(self) -> float:
        """Sample mean of the circuit delay [s]."""
        if self.stats is not None:
            return self.stats.mean
        return float(self.circuit_delays.mean())

    @property
    def std(self) -> float:
        """Sample standard deviation of the circuit delay [s]."""
        if self.stats is not None:
            return self.stats.std
        return float(self.circuit_delays.std(ddof=1))

    def timing_yield(self, target_delay: float) -> float:
        """Fraction of dies meeting the target."""
        if self.stats is not None:
            return self.stats.fraction_below(target_delay)
        return float((self.circuit_delays <= target_delay).mean())

    def percentile(self, q: float) -> float:
        """Empirical quantile of the circuit delay."""
        if not 0.0 < q < 1.0:
            raise TimingError(f"quantile must be in (0,1), got {q}")
        if self.stats is not None:
            return self.stats.quantile(q)
        return float(np.quantile(self.circuit_delays, q))


def _propagate_delays(
    samples: ProcessSamples,
    nominal: np.ndarray,
    sens_l: np.ndarray,
    sens_v: np.ndarray,
    schedule: LevelSchedule,
    po: np.ndarray,
) -> np.ndarray:
    """Batched levelized STA: per-die circuit delays.

    Per-gate sampled delay factors: ``(1 + x + x^2/2)``, with ``x`` the
    sampled log-resistance shift.  Arrivals live gate-major —
    ``(gate, sample)`` — so each level's fanin gathers read contiguous
    rows, and the fanin reduction accumulates column by column with
    ``np.maximum`` into one buffer instead of materializing the padded
    3-D gather (the sentinel row stays ``-inf``, the identity of
    ``max``, so ragged fanin counts cost nothing).  The elementwise
    operation order matches a per-gate loop exactly and ``max`` is
    exact arithmetic, so results stay bitwise identical to scalar
    propagation (the determinism harness asserts this against a naive
    reference).
    """
    n = schedule.n_gates
    x = sens_l * samples.delta_l + sens_v * samples.delta_vth
    gate_delays = np.ascontiguousarray((nominal * (1.0 + x + 0.5 * x * x)).T)
    arrivals = np.full((n + 1, samples.n_samples), -np.inf)
    for gates, fanins in schedule.levels:
        if fanins.size:
            worst = arrivals[fanins[:, 0]]  # fancy index: a fresh buffer
            for j in range(1, fanins.shape[1]):
                np.maximum(worst, arrivals[fanins[:, j]], out=worst)
            arrivals[gates] = worst + gate_delays[gates]
        else:
            arrivals[gates] = gate_delays[gates]
    return arrivals[po].max(axis=0)


@dataclass(frozen=True)
class TimingKernel:
    """Picklable die -> circuit-delay map (everything precomputed, no view).

    The kernel is the pure evaluation half of a Monte-Carlo timing run:
    given sampled dies it returns per-die circuit delays through the
    levelized batch propagation, with no randomness of its own.  The
    variance-reduced estimators (:mod:`repro.mcstat`) are written against
    this interface, so they plug the same physics under every sampling
    strategy — and the tests can substitute an analytically solvable
    kernel to check estimates against a closed-form yield.
    """

    nominal: np.ndarray
    sens_l: np.ndarray
    sens_v: np.ndarray
    schedule: LevelSchedule
    po: np.ndarray
    relative_area: np.ndarray

    @classmethod
    def from_view(cls, view: TimingView) -> "TimingKernel":
        """Precompute the propagation inputs at the current state."""
        tables = view.library.tables
        return cls(
            nominal=view.nominal_delays(),
            sens_l=tables.d_lnr_d_deltal[view.state.vths],
            sens_v=tables.d_lnr_d_deltavth[view.state.vths],
            schedule=view.schedule,
            po=view.primary_output_indices(),
            relative_area=np.asarray(view.rdf_relative_area(), dtype=float),
        )

    def delays(self, samples: ProcessSamples) -> np.ndarray:
        """Per-die circuit delays for the sampled process draws."""
        return _propagate_delays(
            samples, self.nominal, self.sens_l, self.sens_v, self.schedule,
            self.po,
        )


@dataclass(frozen=True)
class _TimingShardOut:
    """One worker's reduction of one shard."""

    delays: np.ndarray
    stats: ShardStats
    samples: Optional[ProcessSamples]


@dataclass(frozen=True)
class _TimingShardTask:
    """Picklable per-shard STA task: draw one shard, run the kernel."""

    varmodel: VariationModel
    kernel: TimingKernel
    keep_samples: bool

    def __call__(self, shard: SampleShard) -> _TimingShardOut:
        samples = _draw_shard(self.varmodel, shard, self.kernel.relative_area)
        delays = self.kernel.delays(samples)
        return _TimingShardOut(
            delays=delays,
            stats=ShardStats.from_values(delays),
            samples=samples if self.keep_samples else None,
        )


def run_monte_carlo_sta(
    circuit_or_view: Circuit | TimingView,
    varmodel: VariationModel,
    n_samples: int = 2000,
    seed: int = 0,
    samples: Optional[ProcessSamples] = None,
    config: Optional[TimingConfig] = None,
    n_jobs: int = 1,
    keep_samples: bool = True,
) -> MCTimingResult:
    """Sampled STA across many dies.

    Pass precomputed ``samples`` to evaluate timing on the same dies as a
    leakage MC run (common random numbers).  ``n_jobs`` shards the run
    over worker processes (0 = all CPUs); statistics are bitwise
    identical for any worker count at a fixed seed.  ``keep_samples=False``
    drops the per-gate sample matrices — the cheap mode for pure
    yield/statistics queries.
    """
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
    kernel = TimingKernel.from_view(view)

    if samples is not None:
        delays = kernel.delays(samples)
        stats = merge_shard_stats([ShardStats.from_values(delays)])
        return MCTimingResult(circuit_delays=delays, samples=samples, stats=stats)

    task = _TimingShardTask(
        varmodel=varmodel,
        kernel=kernel,
        keep_samples=keep_samples,
    )
    plan = SampleShardPlan.build(
        n_samples, seed, shard_size=adaptive_shard_size(n_samples)
    )
    outcomes = run_sharded(task, plan, n_jobs=n_jobs)
    delays = np.concatenate([out.delays for out in outcomes])
    stats = merge_shard_stats([out.stats for out in outcomes])
    merged_samples = (
        _concat_samples([out.samples for out in outcomes if out.samples is not None])
        if keep_samples
        else None
    )
    return MCTimingResult(
        circuit_delays=delays, samples=merged_samples, stats=stats
    )
