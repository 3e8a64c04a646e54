"""Parallel self-lint: shard the source tree across worker processes.

Mirrors the determinism-first pattern of :mod:`repro.parallel.runner`:
files are partitioned round-robin over a worker-count-independent sorted
order, every worker runs the *same* whole-program analysis (the
``--paths`` mechanism narrows only where findings are reported, never
what the call graph sees), and the per-shard findings are merged in
shard order and re-sorted by the engine's total finding order — so the
report is bitwise identical for any ``--jobs N``, including ``N=1``.

The economics differ from the MC runner: each worker pays the full
parse-and-graph cost and parallelism only divides the per-module rule
work, so speedups are modest.  The value is the contract — lint output
that cannot depend on scheduling.

Failure policy is inherited too: if the pool cannot be built or breaks,
emit :class:`~repro.parallel.runner.ParallelExecutionWarning` and rerun
serially — parallel lint is an optimization, never a correctness
requirement.
"""

from __future__ import annotations

import warnings
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from ..parallel.runner import ParallelExecutionWarning, resolve_n_jobs
from .context import LintContext, LintOptions
from .core import Finding
from .engine import LintReport, _finding_order, run_lint, select_passes


@dataclass(frozen=True)
class _ShardLintTask:
    """Picklable worker: lint one file shard of the source tree.

    Carries paths and options, not parsed state — each worker rebuilds
    the module index itself, which keeps the task trivially picklable
    and the workers independent.
    """

    source_root: str
    options: LintOptions
    passes: Optional[Tuple[str, ...]]

    def __call__(self, shard_files: Tuple[str, ...]) -> Tuple[Finding, ...]:
        ctx = LintContext(
            source_root=Path(self.source_root),
            options=replace(self.options, paths=shard_files),
        )
        return run_lint(ctx, passes=self.passes).findings


def shard_files(root: Path, n_shards: int) -> List[Tuple[str, ...]]:
    """Round-robin partition of the tree's ``*.py`` files.

    The file order is sorted (worker-count independent), so shard ``i``
    of ``N`` is a pure function of the tree — the same property the MC
    shard plan has for sample ranges.
    """
    files = sorted(str(p) for p in Path(root).rglob("*.py"))
    shards: List[List[str]] = [[] for _ in range(max(1, n_shards))]
    for i, file in enumerate(files):
        shards[i % len(shards)].append(file)
    return [tuple(shard) for shard in shards if shard]


def run_lint_sharded(
    source_root: Path,
    options: LintOptions,
    passes: Optional[Sequence[str]] = None,
    n_jobs: int = 1,
) -> LintReport:
    """Run the source-tree passes across ``n_jobs`` worker processes.

    Equivalent to ``run_lint`` over a context with the same root and
    options — bitwise, for any job count.  ``options.paths`` may further
    narrow reporting; shards are built from the selected files only.
    """
    workers = resolve_n_jobs(n_jobs)
    serial_ctx = LintContext(source_root=Path(source_root), options=options)
    if options.paths is not None:
        selected = [
            str(info.path)
            for info in serial_ctx.module_index().select(options.paths)
        ]
        shards = _shard_list(selected, workers)
    else:
        shards = shard_files(Path(source_root), workers)
    if workers <= 1 or len(shards) <= 1:
        return run_lint(serial_ctx, passes=passes)
    task = _ShardLintTask(
        source_root=str(source_root),
        options=replace(options, paths=None),
        passes=tuple(passes) if passes is not None else None,
    )
    try:
        per_shard = _run_pool(task, shards, workers)
    except Exception as exc:
        warnings.warn(
            ParallelExecutionWarning(
                f"lint worker pool failed ({type(exc).__name__}: {exc}); "
                f"re-running {len(shards)} shard(s) in-process"
            ),
            stacklevel=2,
        )
        return run_lint(serial_ctx, passes=passes)
    findings = [f for shard_findings in per_shard for f in shard_findings]
    findings.sort(key=_finding_order)
    # Pass selection is path-independent; compute it locally without
    # rerunning any analysis.
    selected = select_passes(serial_ctx, passes)
    return LintReport(findings=tuple(findings), passes=selected)


def _shard_list(files: Sequence[str], n_shards: int) -> List[Tuple[str, ...]]:
    shards: List[List[str]] = [[] for _ in range(max(1, n_shards))]
    for i, file in enumerate(sorted(files)):
        shards[i % len(shards)].append(file)
    return [tuple(shard) for shard in shards if shard]


def _run_pool(
    task: _ShardLintTask,
    shards: List[Tuple[str, ...]],
    workers: int,
) -> List[Tuple[Finding, ...]]:
    results: List[Tuple[Finding, ...]] = [()] * len(shards)
    with ProcessPoolExecutor(max_workers=min(workers, len(shards))) as pool:
        futures = {
            pool.submit(task, shard): i for i, shard in enumerate(shards)
        }
        done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
        for future in not_done:
            future.cancel()
        for future in done:
            results[futures[future]] = future.result()  # re-raises
    return results
