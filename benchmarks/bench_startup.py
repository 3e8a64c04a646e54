"""Cold-start record ``BENCH_startup.json``: wall time of fresh interpreters.

Every entry point runs in a new interpreter, so each run pays the whole
import and set-up cost a user pays: ``repro --version``, ``repro optimize
c432 --flow statistical``, ``repro analyze c432`` and perfbench's set-up
probe for both workloads (``perfbench/run.py --setup-probe``, invoked as
is).  The children import the ``src/`` of the checkout they measure.
Run from the repository root (``PYTHONPATH=src`` for the harness)::

    PYTHONPATH=src python3 benchmarks/bench_startup.py    # this checkout
    PYTHONPATH=src python3 benchmarks/bench_startup.py --root ../parent --root .

With several ``--root`` checkouts, each of the 7 runs of each entry
goes through them in turn, so a before/after pair shares the host's
load.  One row per (checkout, entry) is appended to
``BENCH_startup.json`` at the root of this repository: the entry and
its argv, the run count, the median, fastest and slowest wall seconds,
the children's peak RSS, the modules imported and whether any ``scipy``
module, ``scipy.stats`` in particular, and ``numpy.random`` were among
them (from one more run under ``python -X importtime``, not timed), and
where it was measured: git sha of the checkout's ``src/`` (``-dirty``
with uncommitted changes), ``src/`` lines, CPU count and UTC time.  BLAS
runs on one thread in every child.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from _harness import source_provenance

from repro.atomicio import atomic_write_text

ROOT = Path(__file__).resolve().parent.parent

#: The trajectory file, at the repository root.
RECORD = ROOT / "BENCH_startup.json"

#: (entry, interpreter argv), run from the measured checkout's root.
ENTRIES = (
    ("repro --version", ["-m", "repro", "--version"]),
    ("repro optimize c432 --flow statistical",
     ["-m", "repro", "optimize", "c432", "--flow", "statistical"]),
    ("repro analyze c432", ["-m", "repro", "analyze", "c432"]),
    ("perfbench optimize set-up",
     ["perfbench/run.py", "--setup-probe", "--workload", "optimize", "--seed", "1"]),
    ("perfbench analyze set-up",
     ["perfbench/run.py", "--setup-probe", "--workload", "analyze", "--seed", "1"]),
)

#: Timed runs per entry.
RUNS = 7


def child_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(root: Path, argv, extra=()) -> tuple:
    """One cold run: ``(wall seconds, peak RSS [MB], stderr)``."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *extra, *argv], cwd=root, env=child_env(root),
            stdout=subprocess.DEVNULL, stderr=err,
        )
        # wait4 reports this child's own peak RSS (RUSAGE_CHILDREN would
        # give the largest of all children so far).
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} failed in {root}:\n{stderr}")
    return seconds, usage.ru_maxrss / 1024.0, stderr


def imported_modules(root: Path, argv) -> list:
    """Names of the modules one run imports (``python -X importtime``)."""
    _, _, stderr = run_child(root, argv, extra=("-X", "importtime"))
    return [
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:") and not line.endswith("imported package")
    ]


def loads(modules, package: str) -> bool:
    """Whether ``package`` or one of its submodules is in ``modules``."""
    # SciPy's lazy submodule access can leave the package's own line out
    # of -X importtime; its submodules show.
    return any(m == package or m.startswith(package + ".") for m in modules)


def measure(roots) -> list:
    times = {(r, e): [] for r in roots for e, _ in ENTRIES}
    rss = {(r, e): [] for r in roots for e, _ in ENTRIES}
    for _ in range(RUNS):
        for entry, argv in ENTRIES:
            for root in roots:
                seconds, peak_mb, _ = run_child(root, argv)
                times[root, entry].append(seconds)
                rss[root, entry].append(peak_mb)
    recorded_at = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"
    )
    rows = []
    for root in roots:
        stamp = {**source_provenance(root / "src"), "cpu_count": os.cpu_count(),
                 "recorded_at": recorded_at}
        for entry, argv in ENTRIES:
            modules = imported_modules(root, argv)
            t = times[root, entry]
            rows.append({
                "entry": entry,
                "argv": argv,
                "runs": len(t),
                "median_seconds": statistics.median(t),
                "min_seconds": min(t),
                "max_seconds": max(t),
                "peak_rss_mb": max(rss[root, entry]),
                "modules_loaded": len(modules),
                "scipy_loaded": loads(modules, "scipy"),
                "scipy_stats_loaded": loads(modules, "scipy.stats"),
                "numpy_random_loaded": loads(modules, "numpy.random"),
                **stamp,
            })
    return rows


def append_rows(rows: list) -> None:
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {"rows": []}
    record["rows"].extend(rows)
    atomic_write_text(RECORD, json.dumps(record, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--root", action="append", type=Path, default=None, metavar="DIR",
        help="checkout to measure (repeatable; default: this repository)",
    )
    args = parser.parse_args(argv)
    roots = [root.resolve() for root in (args.root or [ROOT])]
    rows = measure(roots)
    append_rows(rows)
    for row in rows:
        print(f"{row['git_sha'][:10]}  {row['entry']:<40} "
              f"median {row['median_seconds']:.2f} s  "
              f"[{row['min_seconds']:.2f}, {row['max_seconds']:.2f}]  "
              f"{row['peak_rss_mb']:.1f} MB  {row['modules_loaded']} modules  "
              f"scipy {'yes' if row['scipy_loaded'] else 'no'}  "
              f"scipy.stats {'yes' if row['scipy_stats_loaded'] else 'no'}  "
              f"numpy.random {'yes' if row['numpy_random_loaded'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
