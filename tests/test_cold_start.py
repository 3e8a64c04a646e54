"""The flows' import boundary, and the normal quantile/CDF bits it relies on.

``repro optimize``, ``repro analyze`` and the library calls behind them
load only the modules those flows run: never SciPy, ``numpy.random``,
the campaign engine, the job service or the lint passes.  The clone
builder and the annealer draw from :mod:`repro.pcg64`, so ``repro
optimize c432`` and ``repro analyze c432``, which build a seeded clone,
load no ``numpy.random`` either.  Each boundary case runs in a fresh
interpreter, because an import made by any earlier test would hide one
here.  The library case also checks that the flows import nothing after
a first run: building and running a larger clone that still imported a
module would pay for it inside its own wall time.

The flows take their normal quantiles from :func:`repro.normal.ndtri`,
a port of the code ``scipy.special.ndtri`` compiles; the MC estimators,
the histogram engine and the analytic yields call ``scipy.special``'s
``ndtri`` and ``ndtr``.  SciPy's ``norm.ppf`` and ``norm.cdf`` wrap the
same ufuncs.  The bit cases hold them to each other, and the port to
``norm.ppf``, so a SciPy release that broke the identity fails here
rather than in a golden (``tests/test_normal.py`` holds the port to the
ufunc on a far larger grid).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr, ndtri

from repro import normal

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules no flow loads, with their submodules.
ABSENT = ("scipy", "numpy.random", "repro.campaign", "repro.service", "repro.lint")

#: What the CLI's parser reads of the lint package: its pass names.
LINT_PARSER = ("repro.lint", "repro.lint.core")

#: Prints the loaded modules as the last line of a case's output.
REPORT = """
import json, sys
print(json.dumps({"modules": sorted(sys.modules), **report}))
"""

LIBRARY_CASE = """
import sys

from repro import (
    analyze_statistical_leakage, build_variation_model, default_library,
    default_variation, make_benchmark, optimize_statistical, run_ssta, run_sta,
)
from repro.circuit.benchmarks import benchmark_spec
from repro.circuit.generators import random_logic
from repro.timing import TimingView

lib = default_library("ptm100")


def run(circuit):
    spec = default_variation(lib.tech.lnom)
    varmodel = build_variation_model(circuit, spec)
    optimize_statistical(circuit, spec, varmodel)
    view = TimingView(circuit)
    run_sta(view)
    ssta = run_ssta(view, varmodel)
    ssta.criticality
    ssta.delay_at_yield(0.95)
    analyze_statistical_leakage(circuit, varmodel).percentile_power(0.95)


run(make_benchmark("c17", lib))
warm = set(sys.modules)
p = benchmark_spec("c432")
run(random_logic(lib, name="c432_s1", n_inputs=p.n_inputs, n_outputs=p.n_outputs,
                 n_gates=p.n_gates, depth=p.depth, seed=1))
report = {"added": sorted(set(sys.modules) - warm)}
"""

CLI_CASE = """
from repro.cli import main

try:
    code = main({argv!r})
except SystemExit as stop:
    code = stop.code
report = {{"code": code}}
"""


def run_case(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; return its report."""
    env = dict(
        os.environ, PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", code + REPORT], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded(modules, package):
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_library_flows_load_no_unused_subsystem_and_import_nothing_once_warm():
    report = run_case(LIBRARY_CASE)
    for package in ABSENT:
        assert loaded(report["modules"], package) == [], package
    assert report["added"] == []


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["optimize", "c17", "--flow", "statistical"],
    ["analyze", "c17"],
    ["optimize", "c432", "--flow", "statistical"],
    ["analyze", "c432"],
], ids=["version", "optimize", "analyze", "optimize-clone", "analyze-clone"])
def test_cli_verbs_load_no_unused_subsystem(argv):
    report = run_case(CLI_CASE.format(argv=argv))
    assert report["code"] == 0
    for package in ABSENT:
        allowed = LINT_PARSER if package == "repro.lint" else ()
        extra = [m for m in loaded(report["modules"], package) if m not in allowed]
        assert extra == [], package


QUANTILES = [0.0, 1e-300, 1e-12, 0.05, 0.5, 0.95, 1.0 - 1e-12, 1.0]
POINTS = [0.0, -0.0, 8.5, -8.5, 40.0, -40.0, np.inf, -np.inf]


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def quantile_grid() -> np.ndarray:
    rng = np.random.default_rng(20040607)
    return np.concatenate([
        QUANTILES,
        rng.random(20_000),
        10.0 ** -rng.uniform(0.0, 300.0, 2_000),
        1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 2_000),
    ])


def point_grid() -> np.ndarray:
    rng = np.random.default_rng(20040608)
    return np.concatenate([
        POINTS,
        rng.standard_normal(20_000),
        rng.uniform(-40.0, 40.0, 4_000),
    ])


class TestSpecialMatchesStats:
    """``scipy.special`` and, for the quantile, the port hold ``norm``'s bits."""

    def test_ndtri_is_norm_ppf_bitwise_on_arrays(self):
        q = quantile_grid()
        want = bits(stats.norm.ppf(q))
        assert bits(ndtri(q)) == want
        assert bits([normal.ndtri(v) for v in q.tolist()]) == want

    def test_ndtr_is_norm_cdf_bitwise_on_arrays(self):
        x = point_grid()
        assert bits(ndtr(x)) == bits(stats.norm.cdf(x))

    @pytest.mark.parametrize("q", QUANTILES)
    def test_ndtri_is_norm_ppf_bitwise_on_scalars(self, q):
        want = stats.norm.ppf(q)
        # SciPy's ufunc returns ``norm.ppf``'s NumPy scalar; the port a float.
        for got, kind in ((ndtri(q), type(want)), (normal.ndtri(q), float)):
            assert type(got) is kind
            assert bits(got) == bits(want)

    @pytest.mark.parametrize("x", POINTS)
    def test_ndtr_is_norm_cdf_bitwise_on_scalars(self, x):
        got, want = ndtr(x), stats.norm.cdf(x)
        assert type(got) is type(want)
        assert bits(got) == bits(want)

