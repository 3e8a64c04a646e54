"""Benchmark of the statistical dual-Vth + sizing flow, end to end and per layer.

Run from the repository root (no build step; the program is imported from
``src/``)::

    python3 perfbench/run.py --workload optimize --seed 1 --seconds 30 --trace 0

The workload's inputs come from ``--seed`` alone.  Whole rounds of the
workload run for up to ``--seconds`` (at least ``MIN_ROUNDS``); every
output is checked, and a sample of them is compared with Monte-Carlo
ground truth afterwards.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  README.md in this directory defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Single-threaded measurement: OpenBLAS helper threads would otherwise spin
# on a second core, and timings would depend on what else the host runs.
# Set before numpy is first imported, here and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Rounds every run makes, however long they take: each case's time is
#: the fastest of its repeats.
MIN_ROUNDS = 3
#: Outputs per run compared with Monte-Carlo ground truth.
REFERENCE_CASES = 8


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one cold set-up in a fresh interpreter, timed by the parent.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_workloads():
    """Import the program from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    import workloads

    return workloads


def set_up(workloads, name: str, seed: int):
    """Everything before the first timed operation: the seeded case list,
    the inputs of every distinct circuit, and one warm-up operation."""
    workload = workloads.WORKLOADS[name](seed)
    for case in workload.setup_cases():
        workload.build(case)
    workload.warm_up()
    return workload


def setup_seconds(name: str, seed: int) -> float:
    """Median wall time of cold set-ups, each in a fresh interpreter."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", name, "--seed", str(seed),
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        probe = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120,
        )
        times.append(time.perf_counter() - start)
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
    return statistics.median(times)


class Measurement:
    """Outcome of the timed rounds, per case."""

    def __init__(self, n_cases: int) -> None:
        self.times = [[] for _ in range(n_cases)]
        self.outputs = [None] * n_cases
        self.digests = [None] * n_cases
        #: Per case: layer self seconds of its fastest operation (traced).
        self.layers = [{} for _ in range(n_cases)]
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    @property
    def n_ops(self) -> int:
        return sum(len(t) for t in self.times)

    def best_times(self):
        """Each measured case's fastest operation [s].

        Interference from the rest of a shared host only ever adds time,
        in bursts of seconds to a minute; the fastest of a case's repeats,
        a round apart, is its least disturbed measurement.
        """
        return [min(t) for t in self.times if t]

    def op_seconds(self) -> float:
        """Median over cases of each case's fastest operation."""
        return statistics.median(self.best_times())


def measure(workload, seconds: float, tracer=None) -> Measurement:
    """Run whole rounds -- at least ``MIN_ROUNDS``, more while they fit in
    ``seconds`` -- timing and checking every operation."""
    cases = workload.cases()
    result = Measurement(len(cases))
    start = time.perf_counter()
    last_round = 0.0
    while (result.rounds < MIN_ROUNDS
           or time.perf_counter() - start + last_round <= seconds):
        round_start = time.perf_counter()
        for i, case in enumerate(cases):
            result.attempted += 1
            try:
                inputs = workload.build(case)
                if tracer is not None:
                    before = dict(tracer.self_seconds)
                    tracer.recording = True
                t0 = time.perf_counter()
                output = workload.run(inputs)
                elapsed = time.perf_counter() - t0
                if tracer is not None:
                    tracer.recording = False
                    if not result.times[i] or elapsed < min(result.times[i]):
                        result.layers[i] = {
                            layer: total - before.get(layer, 0.0)
                            for layer, total in tracer.self_seconds.items()
                        }
                digest = workload.check(inputs, output)
                if result.digests[i] is None:
                    result.digests[i], result.outputs[i] = digest, output
                elif digest != result.digests[i]:
                    raise RuntimeError("output changed between rounds")
                result.times[i].append(elapsed)
            except Exception:  # one failed operation must not end the run
                if tracer is not None:
                    tracer.recording = False
                result.failed += 1
                print(f"perfbench: case {case} failed:\n{traceback.format_exc()}",
                      file=sys.stderr)
        result.rounds += 1
        last_round = time.perf_counter() - round_start
    return result


def reference_failures(workload, result: Measurement) -> int:
    """Compare a spread sample of first-round outputs with Monte Carlo."""
    cases = workload.cases()
    step = max(1, len(cases) // REFERENCE_CASES)
    failures = 0
    for i in range(0, len(cases), step):
        if result.outputs[i] is None:
            continue
        try:
            workload.reference_check(cases[i], result.outputs[i])
        except Exception:
            failures += 1
            print(f"perfbench: reference check of case {cases[i]} failed:\n"
                  f"{traceback.format_exc()}", file=sys.stderr)
    return failures


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(result: Measurement, setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "op_ms": metric(result.op_seconds() * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "setup_s": metric(setup_s, "s"),
    }


def per_layer_metrics(layers, workload, tracer, result: Measurement) -> dict:
    """Self time per layer, averaged over each case's fastest operation;
    counts per operation."""
    measured = [i for i, t in enumerate(result.times) if t]
    n = len(measured)
    op_total = sum(result.best_times())
    out = {}
    covered = 0.0
    for layer in layers.LAYER_NAMES:
        seconds = sum(result.layers[i].get(layer, 0.0) for i in measured)
        covered += seconds
        out[f"{layer}_ms"] = metric(seconds / n * 1e3, "ms")
    out["other_ms"] = metric((op_total - covered) / n * 1e3, "ms")
    out["traced_op_ms"] = metric(result.op_seconds() * 1e3, "ms")
    out["span_coverage_pct"] = metric(100.0 * covered / op_total, "%")
    for name, layer in (
        ("ssta_runs", "ssta_propagate"), ("sta_runs", "sta"),
        ("clark_max_calls", "clark_max"), ("leakage_evals", "leakage"),
        ("validations", "validate"),
    ):
        out[name] = metric(tracer.calls.get(layer, 0) / result.n_ops, "count")
    scored, kept, reverted = (
        sum(counts) for counts in
        zip(*(workload.move_counts(result.outputs[i]) for i in measured))
    )
    out["moves_scored"] = metric(scored / n, "count")
    out["moves_kept"] = metric(kept / n, "count")
    out["moves_reverted"] = metric(reverted / n, "count")
    tried = kept + reverted
    out["moves_kept_pct"] = metric(100.0 * kept / tried if tried else 0.0, "%")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"known: {', '.join(workloads.WORKLOADS)}")
    workload = set_up(workloads, args.workload, args.seed)
    if args.setup_probe:
        return 0

    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    else:
        setup_s = setup_seconds(args.workload, args.seed)

    result = measure(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference_failed = reference_failures(workload, result)

    if result.n_ops == 0:
        sys.exit("perfbench: every operation failed")
    if tracer is None:
        metrics = end_to_end_metrics(result, setup_s, peak_rss_mb)
    else:
        metrics = per_layer_metrics(layers, workload, tracer, result)
    print(f"perfbench: {args.workload} seed {args.seed}: {result.n_ops} ops in "
          f"{result.rounds} round(s); per-case times [ms]: "
          f"{[[round(t * 1e3, 1) for t in ts] for ts in result.times]}",
          file=sys.stderr)
    print(json.dumps({
        "correct": result.failed == 0 and reference_failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
