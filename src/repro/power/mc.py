"""Monte-Carlo leakage (golden reference for the analytic statistics).

Evaluates total leakage on sampled dies — vectorized as
``sum_g I_nom_g * exp(s_L dL + s_V dVth)`` — and, when given the *same*
:class:`~repro.timing.mc.ProcessSamples` as a timing MC run, exposes the
joint (delay, leakage) sample cloud: the scatter figure showing that fast
dies are the leaky dies, which is the core physical fact behind the
paper's statistical formulation.

Like timing MC, sampling runs on the sharded execution layer
(:mod:`repro.parallel`): independent per-shard ``SeedSequence`` streams
make every statistic bitwise identical for any ``n_jobs``, and workers
ship back per-die scalar currents plus streaming moments rather than the
per-gate sample matrices (unless ``keep_samples`` asks for the dies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import PowerError
from ..parallel import (
    SampleShardPlan,
    SampleStatistics,
    ShardStats,
    merge_shard_stats,
    run_sharded,
)
from ..parallel.plan import SampleShard
from ..timing.mc import ProcessSamples, _concat_samples, _draw_shard
from ..variation.model import VariationModel
from .leakage import gate_leakage_currents


@dataclass(frozen=True)
class MCLeakageResult:
    """Sampled total-leakage distribution."""

    currents: np.ndarray  # (n_samples,) total leakage current [A]
    vdd: float
    samples: Optional[ProcessSamples]
    stats: Optional[SampleStatistics] = None

    @property
    def mean_power(self) -> float:
        """Sample mean leakage power [W]."""
        if self.stats is not None:
            return self.stats.mean * self.vdd
        return float(self.currents.mean()) * self.vdd

    @property
    def std_power(self) -> float:
        """Sample std of leakage power [W]."""
        if self.stats is not None:
            return self.stats.std * self.vdd
        return float(self.currents.std(ddof=1)) * self.vdd

    def percentile_power(self, q: float) -> float:
        """Empirical quantile of leakage power [W]."""
        if not 0.0 < q < 1.0:
            raise PowerError(f"quantile must be in (0,1), got {q}")
        if self.stats is not None:
            return self.stats.quantile(q) * self.vdd
        return float(np.quantile(self.currents, q)) * self.vdd

    @property
    def powers(self) -> np.ndarray:
        """Per-die leakage power [W]."""
        return self.currents * self.vdd


def _total_currents(
    samples: ProcessSamples, nominal: np.ndarray, s_l: float, s_v: float
) -> np.ndarray:
    """Per-die total leakage current over a sample set [A]."""
    exponent = s_l * samples.delta_l + s_v * samples.delta_vth
    return (nominal[None, :] * np.exp(exponent)).sum(axis=1)


@dataclass(frozen=True)
class _LeakageShardOut:
    """One worker's reduction of one shard."""

    currents: np.ndarray
    stats: ShardStats
    samples: Optional[ProcessSamples]


@dataclass(frozen=True)
class _LeakageShardTask:
    """Picklable per-shard leakage kernel."""

    varmodel: VariationModel
    relative_area: np.ndarray
    nominal: np.ndarray
    s_l: float
    s_v: float
    keep_samples: bool

    def __call__(self, shard: SampleShard) -> _LeakageShardOut:
        samples = _draw_shard(self.varmodel, shard, self.relative_area)
        currents = _total_currents(samples, self.nominal, self.s_l, self.s_v)
        return _LeakageShardOut(
            currents=currents,
            stats=ShardStats.from_values(currents),
            samples=samples if self.keep_samples else None,
        )


def run_monte_carlo_leakage(
    circuit: Circuit,
    varmodel: VariationModel,
    n_samples: int = 2000,
    seed: int = 0,
    samples: Optional[ProcessSamples] = None,
    probs: Optional[Mapping[str, float]] = None,
    n_jobs: int = 1,
    keep_samples: bool = True,
) -> MCLeakageResult:
    """Sampled full-chip leakage.

    Pass the ``samples`` from a timing MC run to evaluate on the same dies
    (joint delay/leakage analysis).  ``n_jobs`` shards the run over worker
    processes (0 = all CPUs); statistics are bitwise identical for any
    worker count at a fixed seed.
    """
    circuit.freeze()
    if varmodel.n_gates != circuit.n_gates:
        raise PowerError(
            f"variation model covers {varmodel.n_gates} gates, "
            f"circuit has {circuit.n_gates}"
        )
    nominal = gate_leakage_currents(circuit, probs)
    s_l, s_v = circuit.library.log_leakage_sensitivities
    vdd = circuit.library.tech.vdd

    if samples is not None:
        currents = _total_currents(samples, nominal, s_l, s_v)
        stats = merge_shard_stats([ShardStats.from_values(currents)])
        return MCLeakageResult(
            currents=currents, vdd=vdd, samples=samples, stats=stats
        )

    task = _LeakageShardTask(
        varmodel=varmodel,
        relative_area=circuit.state.sizes.copy(),
        nominal=nominal,
        s_l=float(s_l),
        s_v=float(s_v),
        keep_samples=keep_samples,
    )
    plan = SampleShardPlan.build(n_samples, seed)
    outcomes = run_sharded(task, plan, n_jobs=n_jobs)
    currents = np.concatenate([out.currents for out in outcomes])
    stats = merge_shard_stats([out.stats for out in outcomes])
    merged: List[ProcessSamples] = [
        out.samples for out in outcomes if out.samples is not None
    ]
    return MCLeakageResult(
        currents=currents,
        vdd=vdd,
        samples=_concat_samples(merged) if keep_samples else None,
        stats=stats,
    )
