"""Shared plumbing for the benchmark harness.

Each ``bench_expNN_*.py`` regenerates one table or figure of the paper's
evaluation (see DESIGN.md section 4).  Conventions:

* experiments run **once** per session (``run_once`` wraps
  ``benchmark.pedantic(rounds=1)``), because a full optimizer comparison
  is minutes of work — pytest-benchmark still records the wall time;
* every experiment prints its table/series and also writes it to
  ``benchmarks/results/<exp>.txt`` so the artifact survives pytest's
  output capture;
* assertions check the *shape* the paper reports (who wins, monotone
  trends, crossovers), never absolute numbers — our substrate is an
  analytic simulator, not the authors' testbed.
"""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path
from typing import Callable, TypeVar

from repro.atomicio import atomic_write_text

RESULTS_DIR = Path(__file__).resolve().parent / "results"

T = TypeVar("T")


def run_once(benchmark, fn: Callable[[], T]) -> T:
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def bench_jobs(default: int = 1) -> int:
    """Worker count for sharded MC in experiments.

    ``REPRO_BENCH_JOBS`` overrides (0 = all CPUs) — the knob CI and local
    runs use to exercise the parallel path without editing experiments.
    Statistics are bitwise identical for any value, so this only moves
    wall time.
    """
    return int(os.environ.get("REPRO_BENCH_JOBS", default))


def report(exp_id: str, text: str) -> None:
    """Print an experiment's table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    banner = f"\n=== {exp_id} ===\n{text}\n"
    print(banner)
    atomic_write_text(RESULTS_DIR / f"{exp_id}.txt", text + "\n")


def report_json(exp_id: str, payload: dict) -> None:
    """Persist a machine-readable experiment record under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    atomic_write_text(
        RESULTS_DIR / f"{exp_id}.json",
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )


def source_provenance(src: Path) -> dict:
    """``src/`` line count and git sha of the source tree ``src`` (``-dirty``
    when that tree has uncommitted changes, ``unknown`` outside a git
    checkout)."""
    lines = sum(path.read_bytes().count(b"\n") for path in src.rglob("*.py"))

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=src, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        if git("status", "--porcelain", "--", "."):
            sha += "-dirty"
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"src_lines": lines, "git_sha": sha}
