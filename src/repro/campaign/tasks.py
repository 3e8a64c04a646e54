"""Executable task bodies of the campaign DAG.

:func:`execute_task` is the single entry point the scheduler dispatches —
a module-level function with picklable arguments, so the same code path
runs in-process and inside :class:`~concurrent.futures.ProcessPoolExecutor`
workers.  Each body returns a plain-JSON payload with **no timestamps, no
runtimes, no host identity** — the payload is the content the store
addresses, and byte-for-byte reproducibility of artifacts is a campaign
invariant (wall-clock and provenance go into the store's ``meta.json``
sidecar instead).

Failure injection for the crash-safety tests rides on the
``REPRO_CAMPAIGN_INJECT_FAIL`` environment variable: a comma-separated
list of ``substring`` (always fail matching tasks) or ``substring@N``
(fail the first ``N`` attempts, then recover) tokens.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import replace
from typing import Dict, List, Mapping, Optional

from ..analysis.experiments import ExperimentSetup, prepare
from ..circuit.netlist import GateAssignment
from ..core.config import OptimizerConfig
from ..core.deterministic import optimize_deterministic
from ..core.result import MetricsSnapshot, OptimizationResult
from ..core.statistical import optimize_statistical
from ..errors import CampaignError
from ..mcstat import binomial_estimate
from ..power import analyze_leakage, analyze_statistical_leakage, run_monte_carlo_leakage
from ..tech.technology import VthClass
from ..telemetry import (
    Telemetry,
    TraceContext,
    WorkerTelemetry,
    activate,
)
from ..timing import (
    estimate_timing_yield,
    run_monte_carlo_sta,
    run_ssta,
    run_sta,
)
from .dag import TaskSpec
from .spec import CampaignSpec

#: Environment variable carrying failure-injection tokens (tests, CI).
INJECT_FAIL_ENV = "REPRO_CAMPAIGN_INJECT_FAIL"

Payload = Dict[str, object]


def execute_task(
    task: TaskSpec,
    spec: CampaignSpec,
    upstream: Mapping[str, Payload],
    attempt: int = 0,
) -> Payload:
    """Run one task body and return its deterministic artifact payload.

    ``upstream`` maps dependency task ids to their stored payloads (for
    best-effort tasks, only the dependencies that succeeded).
    """
    _maybe_inject_failure(task.task_id, attempt)
    if task.kind == "analyze":
        return _run_analyze(task, spec)
    if task.kind == "optimize":
        return _run_optimize(task, spec, upstream)
    if task.kind == "mc":
        return _run_mc(task, spec, upstream)
    if task.kind == "pipeline":
        return _run_pipeline(task, spec)
    if task.kind == "report":
        return _run_report(task, spec, upstream)
    raise CampaignError(f"no executor for task kind {task.kind!r}")


def execute_task_traced(
    task: TaskSpec,
    spec: CampaignSpec,
    upstream: Mapping[str, Payload],
    attempt: int = 0,
    ctx: Optional[TraceContext] = None,
) -> "tuple[Payload, Optional[WorkerTelemetry]]":
    """Pool entry point: run one task under a worker telemetry session.

    With ``ctx`` the worker times the task body inside a ``campaign.exec``
    span and ships the bundle home for the scheduler to absorb; without it
    (telemetry disabled) this is :func:`execute_task` plus a tuple wrap.
    The payload itself is identical either way — telemetry never touches
    task artifacts.
    """
    if ctx is None:
        return execute_task(task, spec, upstream, attempt=attempt), None
    tele = Telemetry.for_worker(ctx)
    with activate(tele):
        with tele.span(
            "campaign.exec", task=task.task_id, kind=task.kind, attempt=attempt
        ):
            payload = execute_task(task, spec, upstream, attempt=attempt)
    return payload, tele.export_worker()


def _maybe_inject_failure(task_id: str, attempt: int) -> None:
    tokens = os.environ.get(INJECT_FAIL_ENV, "")
    for token in tokens.split(","):
        token = token.strip()
        if not token:
            continue
        needle, _, bound = token.partition("@")
        if needle not in task_id:
            continue
        if not bound or attempt < int(bound):
            raise CampaignError(
                f"injected failure for {task_id} (attempt {attempt}, "
                f"token {token!r})"
            )


def _setup(spec: CampaignSpec, benchmark: str) -> ExperimentSetup:
    return prepare(
        benchmark, tech_name=spec.tech, sigma_scale=spec.sigma_scale
    )


def _point_config(
    spec: CampaignSpec, margin: float, eta: Optional[float] = None
) -> OptimizerConfig:
    changes: Dict[str, object] = {"delay_margin": float(margin)}
    if eta is not None:
        changes["yield_target"] = float(eta)
    return replace(spec.config, **changes)  # type: ignore[arg-type]


# -- analyze ------------------------------------------------------------------


def _run_analyze(task: TaskSpec, spec: CampaignSpec) -> Payload:
    setup = _setup(spec, task.benchmark)
    sta = run_sta(setup.circuit)
    ssta = run_ssta(setup.circuit, setup.varmodel)
    nominal = analyze_leakage(setup.circuit)
    stat = analyze_statistical_leakage(setup.circuit, setup.varmodel)
    return {
        "benchmark": task.benchmark,
        "tech": spec.tech,
        "n_gates": setup.circuit.n_gates,
        "depth": setup.circuit.depth,
        "nominal_delay": sta.circuit_delay,
        "ssta_mean_delay": ssta.circuit_delay.mean,
        "ssta_sigma_delay": ssta.circuit_delay.sigma,
        "nominal_leakage": nominal.total_power,
        "mean_leakage": stat.mean_power,
        "p95_leakage": stat.percentile_power(0.95),
    }


# -- optimize -----------------------------------------------------------------


def _metrics_payload(snapshot: MetricsSnapshot) -> Payload:
    return dict(dataclasses.asdict(snapshot))


def _assignment_payload(assignment: GateAssignment) -> Payload:
    return {
        "sizes": list(assignment.sizes),
        "vths": [vth.name for vth in assignment.vths],
        "length_biases": list(assignment.length_biases),
    }


def _assignment_from_payload(payload: Mapping[str, object]) -> GateAssignment:
    try:
        sizes = tuple(float(s) for s in payload["sizes"])  # type: ignore[union-attr]
        vths = tuple(VthClass[name] for name in payload["vths"])  # type: ignore[union-attr]
        biases = tuple(float(b) for b in payload["length_biases"])  # type: ignore[union-attr]
    except (KeyError, TypeError, ValueError) as err:
        raise CampaignError(f"malformed assignment payload: {err}") from err
    return GateAssignment(sizes=sizes, vths=vths, length_biases=biases)


def _optimize_payload(result: OptimizationResult) -> Payload:
    # runtime_seconds is deliberately absent: artifacts must be bitwise
    # reproducible, and wall-clock belongs to the meta sidecar/ledger.
    return {
        "optimizer": result.optimizer,
        "benchmark": result.circuit_name,
        "target_delay": result.target_delay,
        "min_delay": result.min_delay,
        "before": _metrics_payload(result.before),
        "after": _metrics_payload(result.after),
        "assignment": _assignment_payload(result.final_assignment),
        "moves_applied": result.moves_applied,
        "n_passes": len(result.passes),
    }


def _run_optimize(
    task: TaskSpec, spec: CampaignSpec, upstream: Mapping[str, Payload]
) -> Payload:
    flow = task.params["flow"]
    margin = float(task.params["margin"])  # type: ignore[arg-type]
    setup = _setup(spec, task.benchmark)
    if flow == "deterministic":
        config = _point_config(spec, margin)
        result = optimize_deterministic(
            setup.circuit, setup.spec, setup.varmodel, config=config
        )
        payload = _optimize_payload(result)
        payload["margin"] = margin
        return payload
    if flow != "statistical":
        raise CampaignError(f"unknown optimization flow {flow!r}")
    eta = float(task.params["yield_target"])  # type: ignore[arg-type]
    config = _point_config(spec, margin, eta)
    target_delay: Optional[float] = None
    det_dep = next((d for d in task.deps if d.endswith(":det")), None)
    if det_dep is not None:
        target_delay = float(upstream[det_dep]["target_delay"])  # type: ignore[arg-type]
    result = optimize_statistical(
        setup.circuit, setup.spec, setup.varmodel,
        target_delay=target_delay, config=config,
    )
    payload = _optimize_payload(result)
    payload["margin"] = margin
    payload["yield_target"] = eta
    return payload


# -- Monte-Carlo validation ---------------------------------------------------


def _run_mc(
    task: TaskSpec, spec: CampaignSpec, upstream: Mapping[str, Payload]
) -> Payload:
    opt = upstream[task.deps[0]]
    setup = _setup(spec, task.benchmark)
    setup.circuit.apply_assignment(
        _assignment_from_payload(opt["assignment"])  # type: ignore[arg-type]
    )
    target = float(opt["target_delay"])  # type: ignore[arg-type]
    # Worker tasks never nest process pools: samples run in-process here,
    # parallelism comes from scheduling independent tasks side by side.
    timing = run_monte_carlo_sta(
        setup.circuit, setup.varmodel,
        n_samples=spec.mc_samples, seed=spec.mc_seed,
        n_jobs=1, keep_samples=False,
    )
    leakage = run_monte_carlo_leakage(
        setup.circuit, setup.varmodel,
        n_samples=spec.mc_samples, seed=spec.mc_seed,
        n_jobs=1, keep_samples=False,
    )
    if spec.mc_estimator == "plain":
        # The plain estimate counts the dies already sampled above.
        estimate = binomial_estimate(
            spec.mc_samples,
            int((timing.circuit_delays <= target).sum()),
            target,
        )
    else:
        estimate = estimate_timing_yield(
            setup.circuit, setup.varmodel, target,
            n_samples=spec.mc_samples, seed=spec.mc_seed,
            n_jobs=1, estimator=spec.mc_estimator,
        )
    lo, hi = estimate.confidence_interval()
    return {
        "benchmark": task.benchmark,
        "flow": task.params["flow"],
        "target_delay": target,
        "n_samples": spec.mc_samples,
        "seed": spec.mc_seed,
        "estimator": spec.mc_estimator,
        "mean_delay": timing.mean,
        "sigma_delay": timing.std,
        "p95_delay": timing.percentile(0.95),
        "mean_leakage": leakage.mean_power,
        "p95_leakage": leakage.percentile_power(0.95),
        "timing_yield": estimate.timing_yield,
        "yield_ci_low": lo,
        "yield_ci_high": hi,
        "yield_n_effective": estimate.n_effective,
    }


# -- pipeline clock-period yield ----------------------------------------------


def _run_pipeline(task: TaskSpec, spec: CampaignSpec) -> Payload:
    """K-stage clock-period yield of one benchmark under ``spec.engine``.

    Every stage is an instance of the benchmark circuit sharing the
    inter-die variation; the clock period is the max over stage delays.
    Yields are reported at each campaign margin over the mean period.
    Samples run in-process (no nested pools), like the mc task.
    """
    from ..engines import analyze_pipeline
    from ..engines.pipeline import PipelineStage

    n_stages = int(task.params["stages"])  # type: ignore[arg-type]
    engine = str(task.params["engine"])
    setup = _setup(spec, task.benchmark)
    stages = tuple(
        PipelineStage(
            name=f"{task.benchmark}.s{k}",
            circuit=setup.circuit,
            varmodel=setup.varmodel,
        )
        for k in range(n_stages)
    )
    params: Dict[str, object] = {}
    if engine == "mc":
        params["n_samples"] = spec.mc_samples if spec.mc_samples > 0 else 4000
        params["seed"] = spec.mc_seed
    result = analyze_pipeline(stages, engine=engine, **params)
    mean = result.period.mean
    return {
        "benchmark": task.benchmark,
        "engine": engine,
        "n_stages": n_stages,
        "period_mean": mean,
        "period_sigma": result.period.sigma,
        "stage_imbalance": result.stage_imbalance,
        "stage_criticality": [float(c) for c in result.stage_criticality],
        "yields": {
            f"m{margin:g}": result.yield_at(margin * mean)
            for margin in spec.margins
        },
    }


# -- report -------------------------------------------------------------------


def _run_report(
    task: TaskSpec, spec: CampaignSpec, upstream: Mapping[str, Payload]
) -> Payload:
    from ..analysis.tables import campaign_comparison_table
    from .dag import _mtag, _ytag

    rows: List[Payload] = []
    missing: List[str] = []
    for bench in spec.benchmarks:
        for margin in spec.margins:
            det = upstream.get(f"opt:{bench}:{_mtag(margin)}:det")
            for eta in spec.yield_targets if "statistical" in spec.flows else (None,):
                stat = None
                if eta is not None:
                    stat = upstream.get(
                        f"opt:{bench}:{_mtag(margin)}:{_ytag(eta)}:stat"
                    )
                if det is None and stat is None:
                    missing.append(f"{bench}:{_mtag(margin)}")
                    continue
                anchor = det or stat
                assert anchor is not None
                row: Payload = {
                    "circuit": bench,
                    "margin": margin,
                    "target_delay": anchor["target_delay"],
                }
                if eta is not None:
                    row["yield_target"] = eta
                if det is not None:
                    after = det["after"]
                    row["det_mean_leakage"] = after["mean_leakage"]  # type: ignore[index]
                    row["det_p95_leakage"] = after["p95_leakage"]  # type: ignore[index]
                    row["det_yield"] = after["timing_yield"]  # type: ignore[index]
                if stat is not None:
                    after = stat["after"]
                    row["stat_mean_leakage"] = after["mean_leakage"]  # type: ignore[index]
                    row["stat_p95_leakage"] = after["p95_leakage"]  # type: ignore[index]
                    row["stat_yield"] = after["timing_yield"]  # type: ignore[index]
                    row["high_vth_fraction"] = after["high_vth_fraction"]  # type: ignore[index]
                if det is not None and stat is not None:
                    row["extra_savings"] = 1.0 - (
                        float(stat["after"]["mean_leakage"])  # type: ignore[index,arg-type]
                        / float(det["after"]["mean_leakage"])  # type: ignore[index,arg-type]
                    )
                mc_det = upstream.get(f"mc:{bench}:{_mtag(margin)}:det")
                if mc_det is not None:
                    row["det_mc_yield"] = mc_det["timing_yield"]
                if eta is not None:
                    mc_stat = upstream.get(
                        f"mc:{bench}:{_mtag(margin)}:{_ytag(eta)}:stat"
                    )
                    if mc_stat is not None:
                        row["stat_mc_yield"] = mc_stat["timing_yield"]
                rows.append(row)
    return {
        "campaign": spec.name,
        "rows": rows,
        "missing": sorted(set(missing)),
        "table": campaign_comparison_table(rows),
    }
