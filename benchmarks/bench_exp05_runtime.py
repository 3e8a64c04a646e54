"""T5 — runtime scaling table, and the per-circuit record ``BENCH_optimize.json``.

Optimizer and analysis runtimes vs circuit size: the paper reports its
flow completing ISCAS85 circuits in minutes; the reproduction should show
near-linear growth of per-pass analysis cost and optimizer wall time
growing with gate count.  The SSTA inner kernel is additionally measured
with proper pytest-benchmark statistics (it is fast enough to repeat).

Every run appends one row per circuit to ``BENCH_optimize.json`` at the
repository root, so the file is a trajectory of the flow's runtime across
source versions.  A row holds the wall time of an untraced run; the
per-span self seconds and every counter (``counters``: SSTA runs and
reuses, merge calls, STA runs, moves evaluated, ...) of a second run of
the same circuit under a telemetry session; the flow's outcome (moves kept and
reverted, final mean and p95 leakage, yield); and what was measured
where (``src/`` lines, CPU count, git sha of the measured source).
"""

from __future__ import annotations

import datetime
import json
import os
from collections import defaultdict
from pathlib import Path

from _harness import report, run_once, source_provenance

import repro
from repro.analysis import format_table
from repro.analysis.experiments import prepare
from repro.atomicio import atomic_write_text
from repro.core import OptimizerConfig, optimize_statistical
from repro.telemetry import telemetry_session
from repro.timing import run_ssta

#: The full ISCAS85 suite, c432 to c7552.
CIRCUITS = ("c432", "c880", "c1908", "c2670", "c3540", "c5315", "c6288", "c7552")

#: The trajectory file, at the repository root.
RECORD = Path(__file__).resolve().parent.parent / "BENCH_optimize.json"


def span_self_seconds(spans) -> dict:
    """Per span name: total duration minus what child spans cover."""
    covered = defaultdict(float)
    for span in spans:
        covered[span.parent_id] += span.duration
    self_seconds = defaultdict(float)
    for span in spans:
        self_seconds[span.name] += span.duration - covered[span.span_id]
    return dict(sorted(self_seconds.items()))


def session_counters(tele) -> dict:
    """Every counter of a telemetry session, keyed ``name`` or
    ``name{label=value,...}``."""
    counters = {}
    for sample in tele.snapshot():
        if sample.kind == "counter":
            labels = ",".join(f"{k}={v}" for k, v in sample.labels)
            counters[f"{sample.name}{{{labels}}}" if labels else sample.name] = int(
                sample.value
            )
    return counters


def measure(name: str, config: OptimizerConfig) -> dict:
    """One record row: an untraced run for wall time, a traced one for spans."""
    setup = prepare(name)
    result = optimize_statistical(
        setup.circuit, setup.spec, setup.varmodel, config=config
    )
    traced_setup = prepare(name)
    with telemetry_session() as tele:
        traced = optimize_statistical(
            traced_setup.circuit, traced_setup.spec, traced_setup.varmodel,
            config=config,
        )
    assert traced.final_assignment == result.final_assignment  # neutrality
    return {
        "circuit": name,
        "gates": setup.circuit.n_gates,
        "wall_seconds": result.runtime_seconds,
        "passes": len(result.passes),
        "moves_applied": result.moves_applied,
        "moves_reverted": sum(p.reverted for p in result.passes),
        "mean_leakage_w": result.after.mean_leakage,
        "p95_leakage_w": result.after.p95_leakage,
        "timing_yield": result.after.timing_yield,
        "span_self_seconds": span_self_seconds(tele.finished_spans()),
        "ssta_runs_total": int(tele.counter("ssta_runs_total").value),
        "ssta_reused_total": int(tele.counter("ssta_reused_total").value),
        "counters": session_counters(tele),
    }


def append_rows(rows: list) -> None:
    """Append rows to the trajectory file (created on first use)."""
    record = (
        json.loads(RECORD.read_text()) if RECORD.exists() else {"rows": []}
    )
    record["rows"].extend(rows)
    atomic_write_text(RECORD, json.dumps(record, indent=2) + "\n")


def run_experiment():
    config = OptimizerConfig()
    warm = prepare("c17")  # lazy imports and cell characterization, untimed
    optimize_statistical(warm.circuit, warm.spec, warm.varmodel, config=config)
    stamp = {
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "cpu_count": os.cpu_count(),
        **source_provenance(Path(repro.__file__).resolve().parent.parent),
    }
    rows = [{**measure(name, config), **stamp} for name in CIRCUITS]
    append_rows(rows)
    return rows


def bench_exp05_runtime(benchmark):
    rows = run_once(benchmark, run_experiment)
    table = format_table(
        ["circuit", "gates", "optimizer [s]", "passes", "moves",
         "s per 1k gates"],
        [
            [r["circuit"], r["gates"], f"{r['wall_seconds']:.1f}", r["passes"],
             r["moves_applied"], f"{1000 * r['wall_seconds'] / r['gates']:.1f}"]
            for r in rows
        ],
        title="T5: statistical-optimizer runtime vs circuit size",
    )
    report("exp05_runtime", table)

    # Runtime grows with size but stays practical (sub-quadratic-ish:
    # the largest circuit costs far less than the naive n^2 scaling of
    # the smallest's per-gate cost would predict).
    small, large = rows[0], rows[-1]
    assert large["wall_seconds"] > small["wall_seconds"]
    scale = (large["gates"] / small["gates"]) ** 2
    assert large["wall_seconds"] < small["wall_seconds"] * scale
    for row in rows:
        assert 0 <= row["ssta_reused_total"] < row["ssta_runs_total"]


def bench_exp05_ssta_kernel(benchmark):
    """SSTA of c880 — the inner loop everything else amortizes.

    Each call passes the circuit, so it builds a fresh view and always
    propagates: this times the kernel, never a reuse of a view's last
    result.
    """
    setup = prepare("c880")
    result = benchmark(lambda: run_ssta(setup.circuit, setup.varmodel))
    assert result.circuit_delay.sigma > 0.0
    again = run_ssta(setup.circuit, setup.varmodel)
    assert again is not result
    assert again.arrivals.rows.tobytes() == result.arrivals.rows.tobytes()
    assert again.criticality.tobytes() == result.criticality.tobytes()
    assert again.circuit_delay.mean == result.circuit_delay.mean
    assert again.circuit_delay.indep == result.circuit_delay.indep
    assert again.circuit_delay.sens.tobytes() == result.circuit_delay.sens.tobytes()
