"""Shard runner: process-pool map with a serial fallback.

``run_sharded`` maps a picklable task over a plan's shards and returns
the per-shard results **in shard order**, whatever order workers finish
in — that ordering, together with the worker-count-independent plan, is
what makes sharded statistics bitwise reproducible for any ``n_jobs``.

Failure policy: parallel execution is an optimization, never a
correctness requirement.  If the pool cannot be built or breaks mid-run
(fork bombs out, a worker is OOM-killed, the task will not pickle), the
runner emits a :class:`ParallelExecutionWarning` and re-runs all shards
in-process — the task is deterministic per shard, so the fallback
produces the identical result, just slower.

Telemetry: with a session active, every shard runs under an ``mc.shard``
span — in the worker process when pooled (the span travels back inside a
:class:`_ShardEnvelope` and is absorbed in shard order), in-process when
serial.  Pooled runs additionally observe each shard's worker startup
latency into the :data:`WORKER_STARTUP_SECONDS` histogram so slowdowns
from pool spawn cost are attributable, not mysterious.  Disabled
telemetry costs one no-op attribute call per shard and never changes
results: the shard task itself is untouched.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, List, Optional, TypeVar, Union

from ..errors import ParallelError
from ..telemetry import (
    NullTelemetry,
    Telemetry,
    TraceContext,
    WorkerTelemetry,
    activate,
    get_telemetry,
)
from .plan import SampleShard, SampleShardPlan

T = TypeVar("T")

#: Chrome-trace lane base for shard timelines (lane = base + shard index);
#: keeps worker spans off the parent's lane 0 so per-lane timestamps stay
#: monotone after absorption.
SHARD_TID_BASE = 100

#: Histogram of per-shard worker startup latency: seconds between pool
#: submission and the worker-side session opening (process spawn +
#: interpreter boot + task unpickle + queue wait).  Serial runs observe
#: nothing — the metric's absence is itself the "no pool was paid for"
#: signal benchmarks use to attribute speedup < 1.
WORKER_STARTUP_SECONDS = "mc_worker_startup_seconds"


class ParallelExecutionWarning(UserWarning):
    """Worker-pool execution failed; the run degraded to in-process."""


def resolve_n_jobs(n_jobs: int) -> int:
    """Normalize a jobs knob: 0 means all CPUs; negatives are invalid."""
    if n_jobs < 0:
        raise ParallelError(f"n_jobs must be >= 0, got {n_jobs}")
    if n_jobs == 0:
        return os.cpu_count() or 1
    return n_jobs


@dataclass(frozen=True)
class _ShardEnvelope:
    """A shard result plus the worker's telemetry bundle."""

    value: object
    telemetry: WorkerTelemetry


@dataclass(frozen=True)
class _TracedShardTask:
    """Picklable wrapper: run the shard task under a worker span.

    The worker process builds its own telemetry session from the parent's
    serialized :class:`TraceContext`, times the shard, and ships the
    span/metric bundle home inside the envelope.  The wrapped task sees
    nothing — determinism of the shard computation is untouched.
    """

    task: Callable[[SampleShard], object]
    ctx: TraceContext

    def __call__(self, shard: SampleShard) -> _ShardEnvelope:
        tele = Telemetry.for_worker(self.ctx)
        with activate(tele):
            with tele.span("mc.shard", shard=shard.index, samples=shard.n_samples):
                tele.counter("mc_shards_total").inc()
                tele.counter("mc_samples_total").inc(shard.n_samples)
                value = self.task(shard)
        return _ShardEnvelope(value=value, telemetry=tele.export_worker())


def run_sharded(
    task: Callable[[SampleShard], T],
    plan: SampleShardPlan,
    n_jobs: int = 1,
) -> List[T]:
    """Evaluate ``task`` on every shard; results in shard order.

    ``task`` must be picklable (a module-level function or a dataclass
    instance with ``__call__``) and deterministic given the shard — both
    the parallel path and the fallback rely on that.
    """
    tele = get_telemetry()
    workers = min(resolve_n_jobs(n_jobs), plan.n_shards)
    with tele.span(
        "mc.run", shards=plan.n_shards, samples=plan.n_samples, workers=workers
    ):
        if workers <= 1:
            return _run_serial(task, plan, tele)
        try:
            return _run_pool(task, plan, workers, tele)
        except Exception as exc:
            warnings.warn(
                ParallelExecutionWarning(
                    f"worker pool failed ({type(exc).__name__}: {exc}); "
                    f"re-running {plan.n_shards} shard(s) in-process"
                ),
                stacklevel=2,
            )
            tele.counter("parallel_fallback_total").inc()
            tele.event(
                "parallel.fallback",
                error=type(exc).__name__,
                shards=plan.n_shards,
            )
            return _run_serial(task, plan, tele)


def _run_serial(
    task: Callable[[SampleShard], T],
    plan: SampleShardPlan,
    tele: Union[Telemetry, NullTelemetry],
) -> List[T]:
    """In-process execution with the same per-shard spans as the pool."""
    results: List[T] = []
    for shard in plan.shards:
        with tele.span("mc.shard", shard=shard.index, samples=shard.n_samples):
            tele.counter("mc_shards_total").inc()
            tele.counter("mc_samples_total").inc(shard.n_samples)
            results.append(task(shard))
    return results


def _run_pool(
    task: Callable[[SampleShard], T],
    plan: SampleShardPlan,
    workers: int,
    tele: Union[Telemetry, NullTelemetry, None] = None,
) -> List[T]:
    if tele is None:
        tele = get_telemetry()
    ctx: Optional[TraceContext] = tele.trace_context() if tele.enabled else None
    submit: Callable[[SampleShard], object] = (
        _TracedShardTask(task=task, ctx=ctx) if ctx is not None else task
    )
    results: List[object] = [None] * plan.n_shards
    queue_start = tele.now() if ctx is not None else 0.0
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(submit, shard): shard.index for shard in plan.shards}
        done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
        for future in not_done:
            future.cancel()
        for future in done:
            results[futures[future]] = future.result()  # re-raises worker errors
    if ctx is None:
        return results  # type: ignore[return-value]
    # Absorb worker timelines in shard order — the deterministic merge
    # order the metrics contract requires — and unwrap the values.
    values: List[T] = []
    startup_hist = tele.registry.histogram(WORKER_STARTUP_SECONDS)
    for shard, envelope in zip(plan.shards, results):
        assert isinstance(envelope, _ShardEnvelope)
        offset = tele.absorb(
            envelope.telemetry,
            tid=SHARD_TID_BASE + shard.index,
            parent_id=ctx.parent_span_id or None,
        )
        # The absorb offset is the worker session's start on the parent
        # timeline; everything between submission and that instant is
        # pool overhead, not shard compute.
        startup_hist.observe(max(0.0, offset - queue_start))
        values.append(envelope.value)  # type: ignore[arg-type]
    return values
