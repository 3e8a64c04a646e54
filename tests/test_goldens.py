"""Frozen outputs of the paper's headline comparisons on c432 and c880.

``tests/goldens/paper_claims.json`` holds the figures this module's
:func:`compute_goldens` produced when the file was last written:

* **T3** — :func:`run_comparison` (deterministic vs statistical flow at
  the deterministic flow's target delay): mean and 95th-percentile
  leakage and timing yield of both results, plus the target delay;
* **F3** — the SSTA circuit-delay mean and sigma, and the mean, sigma
  and 95th percentile of a 2000-die Monte-Carlo STA at seed 17.

Every figure must match to 1e-9 relative, so a refactor that claims no
output moved is checked rather than asserted.

``tests/goldens/optimizer_results.json`` holds, for every run in
:data:`OPTIMIZER_RUNS`, the ``repr`` of each
:class:`~repro.core.result.OptimizationResult` field but
``runtime_seconds``, plus the run's SSTA and leakage work counters.
Those must match exactly: a speedup that claims the same program keeps
every assignment, pass record and metric bit and every count.

A missing file fails.  After a deliberate change to the numbers, rewrite
both files with::

    PYTHONPATH=src python tests/test_goldens.py
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.analysis.experiments import prepare, run_comparison
from repro.core import OptimizerConfig, optimize_deterministic, optimize_statistical
from repro.core.annealing import AnnealConfig, optimize_annealing
from repro.telemetry import telemetry_session
from repro.timing import run_monte_carlo_sta, run_ssta

GOLDENS = Path(__file__).resolve().parent / "goldens" / "paper_claims.json"
OPTIMIZER_GOLDENS = GOLDENS.with_name("optimizer_results.json")
CIRCUITS = ("c432", "c880")
MC_SAMPLES = 2000
MC_SEED = 17
REL = 1e-9


def t3_figures(name):
    """Deterministic vs statistical optimization at a shared target."""
    row = run_comparison(prepare(name))
    figures = {"target_delay": row.target_delay}
    for flow, result in (("det", row.deterministic), ("stat", row.statistical)):
        figures[f"{flow}_mean_leakage"] = result.after.mean_leakage
        figures[f"{flow}_p95_leakage"] = result.after.p95_leakage
        figures[f"{flow}_yield"] = result.after.timing_yield
    return figures


def f3_figures(name):
    """SSTA circuit-delay moments against a seeded Monte-Carlo STA."""
    setup = prepare(name)
    ssta = run_ssta(setup.circuit, setup.varmodel)
    mc = run_monte_carlo_sta(
        setup.circuit, setup.varmodel, n_samples=MC_SAMPLES, seed=MC_SEED
    )
    return {
        "ssta_mean": ssta.circuit_delay.mean,
        "ssta_sigma": ssta.circuit_delay.sigma,
        "mc_mean": mc.mean,
        "mc_sigma": mc.std,
        "mc_p95": mc.percentile(0.95),
    }


SECTIONS = {"T3": t3_figures, "F3": f3_figures}


def compute_goldens():
    return {
        section: {name: figures(name) for name in CIRCUITS}
        for section, figures in SECTIONS.items()
    }


def _statistical(setup, lbias=False):
    config = OptimizerConfig(enable_lbias=lbias)
    return optimize_statistical(
        setup.circuit, setup.spec, setup.varmodel, config=config
    )


def _deterministic(setup, lbias=False):
    config = OptimizerConfig(enable_lbias=lbias)
    return optimize_deterministic(
        setup.circuit, setup.spec, setup.varmodel, config=config
    )


def _annealing(setup):
    return optimize_annealing(
        setup.circuit, setup.spec, setup.varmodel, anneal=AnnealConfig(steps=300)
    )


#: ``name -> (circuit, optimizer call)``.
OPTIMIZER_RUNS = {
    **{
        f"{flow.__name__[1:]} {name}": (name, flow)
        for flow in (_statistical, _deterministic)
        for name in ("c17", "c432", "c880")
    },
    "statistical c432 enable_lbias": ("c432", lambda s: _statistical(s, lbias=True)),
    "deterministic c432 enable_lbias": ("c432", lambda s: _deterministic(s, lbias=True)),
    "annealing c17 steps=300": ("c17", _annealing),
    "annealing c432 steps=300": ("c432", _annealing),
}
OPTIMIZER_COUNTERS = ("ssta_runs_total", "ssta_reused_total", "leakage_evals_total")


def optimizer_figures(run):
    """``repr`` of every result field but the runtime, and the counters."""
    name, optimize = OPTIMIZER_RUNS[run]
    setup = prepare(name)
    with telemetry_session() as tele:
        result = optimize(setup)
    figures = {
        field.name: repr(getattr(result, field.name))
        for field in dataclasses.fields(result)
        if field.name != "runtime_seconds"
    }
    for counter in OPTIMIZER_COUNTERS:
        figures[counter] = int(tele.counter(counter).value)
    return figures


def compute_optimizer_goldens():
    return {run: optimizer_figures(run) for run in OPTIMIZER_RUNS}


@pytest.fixture(scope="module")
def goldens():
    if not GOLDENS.exists():
        pytest.fail(f"{GOLDENS.name} is missing; regenerate it (see module docstring)")
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("section", sorted(SECTIONS))
@pytest.mark.parametrize("name", CIRCUITS)
def test_figures_match_golden(goldens, section, name):
    expected = goldens[section][name]
    actual = SECTIONS[section](name)
    assert sorted(actual) == sorted(expected)
    drifted = {
        key: (expected[key], actual[key])
        for key in expected
        if actual[key] != pytest.approx(expected[key], rel=REL, abs=0.0)
    }
    assert not drifted, f"{section} {name} drifted (golden, now): {drifted}"


@pytest.fixture(scope="module")
def optimizer_goldens():
    if not OPTIMIZER_GOLDENS.exists():
        pytest.fail(
            f"{OPTIMIZER_GOLDENS.name} is missing; regenerate it (see module docstring)"
        )
    return json.loads(OPTIMIZER_GOLDENS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("run", list(OPTIMIZER_RUNS))
def test_optimizer_results_match_golden(optimizer_goldens, run):
    expected = optimizer_goldens[run]
    actual = optimizer_figures(run)
    assert sorted(actual) == sorted(expected)
    drifted = sorted(key for key in expected if actual[key] != expected[key])
    assert not drifted, f"{run}: {drifted} drifted"


def test_optimizer_golden_covers_every_run(optimizer_goldens):
    assert sorted(optimizer_goldens) == sorted(OPTIMIZER_RUNS)


if __name__ == "__main__":
    from repro.atomicio import atomic_write_json

    GOLDENS.parent.mkdir(exist_ok=True)
    atomic_write_json(GOLDENS, compute_goldens())
    print(f"wrote {GOLDENS}")
    atomic_write_json(OPTIMIZER_GOLDENS, compute_optimizer_goldens())
    print(f"wrote {OPTIMIZER_GOLDENS}")
