"""Command-line interface.

``python -m repro <command>`` exposes the headline flows without writing
any Python:

* ``list`` — registered benchmarks and technology presets;
* ``info CIRCUIT`` — structural summary of a benchmark or ``.bench`` file;
* ``analyze CIRCUIT`` — STA/SSTA/leakage snapshot at the current (unit)
  implementation;
* ``optimize CIRCUIT`` — run the deterministic baseline, the statistical
  flow, or both at a shared constraint and print the comparison
  (``--jobs N`` shards any Monte-Carlo yield evaluation over workers);
* ``mc CIRCUIT`` — sharded Monte-Carlo validation: sampled delay and
  leakage statistics against their analytic (SSTA / lognormal-sum)
  counterparts, with the binomial confidence interval on the yield
  estimate; ``--jobs N`` fans the samples out over worker processes with
  bitwise-identical results (see ``docs/parallel.md``);
* ``lint [CIRCUIT] [--self]`` — static analysis: circuit, technology, and
  config rules for a circuit, or the source-tree passes over ``src/repro``
  itself (AST conventions plus the interprocedural units-propagation and
  RNG-determinism analyses); supports SARIF output and finding baselines
  (see ``docs/static_analysis.md`` for every rule code);
* ``campaign run|status|resume|gc`` — resumable batch runs over a
  content-addressed result store: expand a declarative TOML/JSON spec (or
  a bundled one such as ``paper-sweep``) into a task DAG, execute it on a
  process pool with retry and failure isolation, memoize every artifact
  by content hash so reruns are cache hits, and resume crashed campaigns
  by re-executing only the missing tasks (see ``docs/campaign.md``);
* ``telemetry summarize|export`` — inspect a JSONL telemetry trace
  produced by ``--telemetry PATH`` on ``optimize``/``mc``/``campaign
  run|resume``: per-span timing rollups and counters, or conversion to
  Chrome trace-event JSON / Prometheus text exposition (see
  ``docs/observability.md``);
* ``serve`` — run the multi-tenant job service: an HTTP API over the
  campaign engine with quotas, rate limits, streaming job events, and
  content-addressed artifact serving (see ``docs/service.md``);
* ``submit SPEC`` / ``status [JOB]`` / ``fetch KEY`` — client side of
  the service: submit a campaign spec as a job, poll or follow it, and
  fetch artifacts whose bytes are identical to a local ``campaign run``.

Circuits are named benchmarks (``c432``) or paths to ``.bench`` files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .analysis import format_table, microwatts, percent, picoseconds
from .analysis.experiments import prepare
from .atomicio import atomic_write_json, atomic_write_text
from .campaign import (
    ArtifactStore,
    CampaignRunner,
    CampaignSpec,
    EventLedger,
    complete_task_keys,
    expand,
    resolve_spec,
    task_durations,
    task_states,
)
from .circuit import (
    benchmark_names,
    load_bench,
    make_benchmark,
    save_bench,
    save_verilog,
)
from .circuit.placement import build_variation_model
from .core import (
    OptimizerConfig,
    optimize_deterministic,
    optimize_statistical,
)
from .engines import DEFAULT_BINS, ENGINE_NAMES, get_engine
from .errors import EngineError, ReproError
from .lint import (
    PASS_NAMES,
    REGISTRY,
    LintContext,
    LintOptions,
    LintReport,
    apply_baseline,
    dead_entries,
    load_baseline,
    prune_baseline,
    render_json,
    render_sarif,
    render_text,
    run_lint,
    run_lint_sharded,
    write_baseline,
)
from .power import (
    analyze_dynamic_power,
    analyze_leakage,
    analyze_statistical_leakage,
    run_monte_carlo_leakage,
)
from .tech import available_technologies, default_library, save_liberty
from .telemetry import (
    chrome_trace,
    final_snapshot,
    read_events,
    render_prometheus,
    summarize_scalars,
    summarize_spans,
    telemetry_session,
)
from .mcstat import ESTIMATOR_NAMES, binomial_estimate
from .timing import (
    estimate_timing_yield,
    run_monte_carlo_sta,
    run_ssta,
    run_sta,
)
from .units import ps
from .variation import default_variation


def _resolve_circuit(name: str, tech_name: str):
    lib = default_library(tech_name)
    if name.endswith(".bench") or "/" in name:
        path = Path(name)
        if not path.exists():
            raise ReproError(f"no such .bench file: {name}")
        return lib, load_bench(path, lib)
    return lib, make_benchmark(name, lib)


def _cmd_list(args: argparse.Namespace) -> int:
    print("benchmarks: " + ", ".join(benchmark_names()))
    print("technologies: " + ", ".join(available_technologies()))
    return 0


def _print_provenance() -> None:
    from .provenance import provenance

    info = provenance()
    rows = [[key, value if value is not None else "-"]
            for key, value in sorted(info.items())]
    print(format_table(["field", "value"], rows, title="provenance"))
    from .engines import ENGINE_NAMES

    print("engines: " + ", ".join(ENGINE_NAMES))
    print("estimators: " + ", ".join(ESTIMATOR_NAMES))


def _cmd_info(args: argparse.Namespace) -> int:
    if args.circuit is None:
        _print_provenance()
        return 0
    _, circuit = _resolve_circuit(args.circuit, args.tech)
    stats = circuit.stats()
    rows = [[key, value] for key, value in stats.items() if key != "cells"]
    rows += [[f"  {cell}", count] for cell, count in stats["cells"].items()]
    print(format_table(["property", "value"], rows, title=f"{circuit.name}"))
    report = run_lint(LintContext(circuit=circuit), passes=("circuit",))
    if report.findings:
        print(
            f"lint: {len(report.findings)} finding(s) "
            f"({report.n_errors} error(s), {report.n_warnings} warning(s)); "
            f"rerun with `repro lint {args.circuit}` for details"
        )
    else:
        print("lint: clean")
    print()
    _print_provenance()
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    lib, circuit = _resolve_circuit(args.circuit, args.tech)
    spec = default_variation(lib.tech.lnom)
    varmodel = build_variation_model(circuit, spec)
    sta = run_sta(circuit)
    ssta = run_ssta(circuit, varmodel)
    nominal = analyze_leakage(circuit)
    stat = analyze_statistical_leakage(circuit, varmodel)
    dynamic = analyze_dynamic_power(circuit)
    print(
        format_table(
            ["metric", "value"],
            [
                ["gates", circuit.n_gates],
                ["nominal delay [ps]", picoseconds(sta.circuit_delay)],
                ["SSTA mean delay [ps]", picoseconds(ssta.circuit_delay.mean)],
                ["SSTA sigma [ps]", picoseconds(ssta.circuit_delay.sigma)],
                ["nominal leakage [uW]", microwatts(nominal.total_power)],
                ["mean leakage [uW]", microwatts(stat.mean_power)],
                ["95th-pct leakage [uW]", microwatts(stat.percentile_power(0.95))],
                ["dynamic @ 1 GHz [uW]", microwatts(dynamic.total)],
            ],
            title=f"{circuit.name} @ {lib.tech.name}",
        )
    )
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    params: dict = {"n_jobs": args.jobs}
    if args.bins is not None:
        if args.engine != "histogram":
            raise EngineError(
                "--bins only applies to the histogram engine; "
                f"got --engine {args.engine}"
            )
        params["bins"] = args.bins
    if args.engine == "mc":
        params.update(n_samples=args.samples, seed=args.seed)
    lib, circuit = _resolve_circuit(args.circuit, args.tech)
    spec = default_variation(lib.tech.lnom)
    varmodel = build_variation_model(circuit, spec)
    sta = run_sta(circuit)
    ref = get_engine(args.engine).analyze(circuit, varmodel, **params)
    stat = analyze_statistical_leakage(circuit, varmodel)
    target = ps(args.target_delay) if args.target_delay else 1.1 * sta.circuit_delay

    timing_mc = run_monte_carlo_sta(
        circuit, varmodel, n_samples=args.samples, seed=args.seed,
        n_jobs=args.jobs, keep_samples=False,
    )
    leak_mc = run_monte_carlo_leakage(
        circuit, varmodel, n_samples=args.samples, seed=args.seed,
        n_jobs=args.jobs, keep_samples=False,
    )
    if args.estimator == "plain":
        # The plain estimate counts the dies the table stats come from.
        est = binomial_estimate(
            args.samples,
            int((timing_mc.circuit_delays <= target).sum()),
            target,
        )
    else:
        est = estimate_timing_yield(
            circuit, varmodel, target,
            n_samples=args.samples, seed=args.seed, n_jobs=args.jobs,
            estimator=args.estimator,
        )
    if args.engine == "clark":
        ref_label, title_engine = "analytic", ""
    else:
        ref_label, title_engine = args.engine, f", engine {args.engine}"
    lo, hi = est.confidence_interval()
    print(
        format_table(
            ["metric", "Monte Carlo", ref_label],
            [
                ["mean delay [ps]",
                 picoseconds(timing_mc.mean),
                 picoseconds(ref.max_delay.mean)],
                ["sigma delay [ps]",
                 picoseconds(timing_mc.std),
                 picoseconds(ref.max_delay.sigma)],
                ["p95 delay [ps]",
                 picoseconds(timing_mc.percentile(0.95)),
                 picoseconds(ref.max_delay.quantile(0.95))],
                ["mean leakage [uW]",
                 microwatts(leak_mc.mean_power), microwatts(stat.mean_power)],
                ["p95 leakage [uW]",
                 microwatts(leak_mc.percentile_power(0.95)),
                 microwatts(stat.percentile_power(0.95))],
                [f"yield @ {picoseconds(target)} ps",
                 f"{est.timing_yield:.4f}",
                 f"{ref.yield_at(target):.4f}"],
            ],
            title=(
                f"{circuit.name}: {args.samples} samples, seed {args.seed}, "
                f"jobs {args.jobs}, estimator {args.estimator}"
                f"{title_engine}"
            ),
        )
    )
    if args.estimator == "plain":
        print(f"\nyield 3-sigma binomial CI: [{lo:.4f}, {hi:.4f}]")
    else:
        print(
            f"\nyield 3-sigma CI ({args.estimator}): [{lo:.4f}, {hi:.4f}]  "
            f"(n_effective ~ {est.n_effective:,.0f} plain samples)"
        )
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    config = OptimizerConfig(
        delay_margin=args.margin,
        yield_target=args.yield_target,
        n_jobs=args.jobs,
        yield_mc_samples=args.mc_yield,
        yield_estimator=args.estimator,
        timing_engine=args.engine,
    )
    if args.circuit in benchmark_names():
        setup = prepare(args.circuit, tech_name=args.tech)
        lib, circuit, spec, varmodel = (
            setup.library, setup.circuit, setup.spec, setup.varmodel
        )
    else:
        lib, circuit = _resolve_circuit(args.circuit, args.tech)
        spec = default_variation(lib.tech.lnom)
        varmodel = build_variation_model(circuit, spec)

    results = []
    target = None
    if args.flow in ("deterministic", "both"):
        det = optimize_deterministic(circuit, spec, varmodel, config=config)
        results.append(det)
        target = det.target_delay
    if args.flow in ("statistical", "both"):
        stat = optimize_statistical(
            circuit, spec, varmodel, target_delay=target, config=config
        )
        results.append(stat)

    rows = [
        [r.optimizer,
         picoseconds(r.target_delay),
         microwatts(r.after.mean_leakage),
         microwatts(r.after.p95_leakage),
         f"{r.after.timing_yield:.4f}",
         percent(r.after.high_vth_fraction),
         f"{r.runtime_seconds:.1f}"]
        for r in results
    ]
    print(
        format_table(
            ["flow", "Tmax [ps]", "mean leak [uW]", "p95 leak [uW]", "yield",
             "high-Vth", "runtime [s]"],
            rows,
            title=f"optimization of {circuit.name}",
        )
    )
    if len(results) == 2:
        extra = 1.0 - results[1].after.mean_leakage / results[0].after.mean_leakage
        print(f"\nextra statistical savings: {percent(extra)}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    if args.circuit == "baseline" and args.baseline_action is not None:
        return _cmd_lint_baseline(args)
    if args.circuit == "rules":
        return _cmd_lint_rules(args)
    if args.baseline_action is not None:
        raise ReproError(
            f"unexpected argument {args.baseline_action!r}; baseline "
            "subcommands are 'repro lint baseline verify|prune'"
        )
    if args.circuit is None and not args.self_lint:
        raise ReproError("lint needs a circuit, --self, or both")
    options = LintOptions(
        max_fanout=args.max_fanout,
        reconvergence_depth=args.reconvergence_depth,
        ignore=frozenset(args.ignore),
        paths=tuple(args.paths) if args.paths else None,
    )
    passes = tuple(args.passes) if args.passes else None
    circuit = None
    library = None
    config = None
    spec = None
    target_delay = None
    if args.circuit is not None:
        library, circuit = _resolve_circuit(args.circuit, args.tech)
        config = OptimizerConfig()
        spec = default_variation(library.tech.lnom)
        if args.target_delay is not None:
            target_delay = ps(args.target_delay)
    source_root = Path(__file__).parent if args.self_lint else None
    if args.jobs != 1:
        if args.circuit is not None or not args.self_lint:
            raise ReproError(
                "--jobs parallelizes the source-tree passes only; "
                "use it with --self and no circuit"
            )
        report = run_lint_sharded(
            source_root, options, passes=passes, n_jobs=args.jobs
        )
    else:
        report = run_lint(
            LintContext(
                circuit=circuit,
                library=library,
                config=config,
                spec=spec,
                target_delay=target_delay,
                source_root=source_root,
                options=options,
            ),
            passes=passes,
        )
    if args.write_baseline:
        baseline_path = Path(args.baseline or "lint-baseline.json")
        count = write_baseline(report, baseline_path)
        print(f"wrote baseline with {count} finding(s) to {baseline_path}")
        return 0
    if args.baseline is not None:
        report = apply_baseline(report, load_baseline(Path(args.baseline)))
    if args.format == "json":
        print(render_json(report))
    elif args.format == "sarif":
        print(render_sarif(report))
    else:
        print(render_text(report, verbose=args.verbose,
                          show_suppressed=args.show_suppressed))
    return report.exit_code(strict=args.strict)


def _self_lint_report() -> LintReport:
    """Full self-lint over the installed package (all source passes)."""
    return run_lint(LintContext(source_root=Path(__file__).parent))


def _cmd_lint_baseline(args: argparse.Namespace) -> int:
    baseline_path = Path(args.baseline or "lint-baseline.json")
    source_root = Path(__file__).parent
    report = _self_lint_report()
    if args.baseline_action == "prune":
        kept, removed = prune_baseline(
            baseline_path, report, REGISTRY, source_root
        )
        for entry, reason in removed:
            print(f"pruned {entry}\n    ({reason})")
        print(
            f"{baseline_path}: kept {kept} entr{'y' if kept == 1 else 'ies'}, "
            f"pruned {len(removed)}"
        )
        return 0
    entries = load_baseline(baseline_path)
    dead = dead_entries(entries, report, REGISTRY, source_root)
    if dead:
        for entry, reason in dead:
            print(f"dead entry {entry}\n    ({reason})")
        print(
            f"{baseline_path}: {len(dead)} of {len(entries)} entries are "
            "dead; run 'repro lint baseline prune' to drop them"
        )
        return 1
    print(f"{baseline_path}: all {len(entries)} entries still match")
    return 0


def _cmd_lint_rules(args: argparse.Namespace) -> int:
    """List every registered rule, grouped by pass (text or JSON)."""
    if args.format == "json":
        payload = [
            {
                "code": rule.code,
                "name": rule.name,
                "severity": rule.severity.value,
                "pass": rule.pass_name,
                "summary": rule.summary,
            }
            for rule in REGISTRY
        ]
        print(json.dumps(payload, indent=2))
        return 0
    if args.format == "sarif":
        raise ReproError("'repro lint rules' supports text or json format")
    for pass_name in PASS_NAMES:
        rules = REGISTRY.rules(pass_name)
        if not rules:
            continue
        print(f"[{pass_name}]")
        for rule in rules:
            print(f"  {rule.code} {rule.severity.value:<7} {rule.name}")
            print(f"      {rule.summary}")
    print(f"{len(REGISTRY.codes())} rule(s) in {len(PASS_NAMES)} pass(es)")
    return 0


def _campaign_spec(args: argparse.Namespace) -> CampaignSpec:
    spec = resolve_spec(args.spec)
    benchmarks = getattr(args, "benchmarks", None)
    if benchmarks:
        spec = spec.with_overrides(benchmarks=tuple(benchmarks))
    mc_samples = getattr(args, "mc_samples", None)
    if mc_samples is not None:
        spec = spec.with_overrides(mc_samples=mc_samples)
    return spec


def _campaign_execute(args: argparse.Namespace, resume: bool) -> int:
    spec = _campaign_spec(args)
    store = ArtifactStore(args.store)
    ledger = EventLedger(store.ledger_path(spec.name))
    if resume and not ledger.exists():
        raise ReproError(
            f"campaign {spec.name!r} has no ledger under {args.store}; "
            "nothing to resume (start it with `repro campaign run`)"
        )
    runner = CampaignRunner(
        spec, store, n_jobs=args.jobs,
        force=getattr(args, "force", False), ledger=ledger,
    )
    result = runner.run()
    rows = [
        [o.task_id, o.state, (o.key or "-")[:12], o.attempts,
         f"{o.elapsed:.2f}"]
        for o in result.outcomes
    ]
    print(format_table(
        ["task", "state", "key", "attempts", "secs"], rows,
        title=f"campaign {spec.name} @ {args.store}",
    ))
    print(
        f"\n{result.executed} executed, {result.cached} cached, "
        f"{result.failed} failed, {result.skipped} skipped "
        f"(cache hit rate {result.cache_hit_rate:.0%})"
    )
    for outcome in result.outcomes:
        if outcome.error:
            print(f"  {outcome.task_id}: {outcome.error}")
    if result.report_key is not None:
        report = store.get(result.report_key)
        print("\n" + str(report["table"]))
        missing = report.get("missing") if isinstance(report, dict) else None
        if missing:
            print(f"rows missing (failed upstream): {', '.join(missing)}")
    if args.summary_json:
        atomic_write_json(Path(args.summary_json), result.summary())
        print(f"\nwrote summary to {args.summary_json}")
    return 0 if result.ok else 1


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    return _campaign_execute(args, resume=False)


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    return _campaign_execute(args, resume=True)


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    spec = _campaign_spec(args)
    store = ArtifactStore(args.store)
    keys = complete_task_keys(spec)
    ledger = EventLedger(store.ledger_path(spec.name))
    last_run = ledger.latest_run() if ledger.exists() else []
    states = task_states(last_run)
    durations = task_durations(last_run)
    rows = []
    stored = 0
    for task in expand(spec):
        key = keys[task.task_id]
        present = store.has(key)
        stored += present
        timing = durations.get(task.task_id, {})
        seconds = timing.get("seconds")
        rows.append([
            task.task_id,
            present,
            states.get(task.task_id, "-"),
            timing.get("attempts", 0),
            timing.get("retries", 0),
            f"{seconds:.2f}" if isinstance(seconds, float) else "-",
            key[:12],
        ])
    print(format_table(
        ["task", "stored", "last run", "attempts", "retries", "secs", "key"],
        rows,
        title=f"campaign {spec.name} @ {args.store} "
              f"(spec {spec.fingerprint()[:12]})",
    ))
    print(f"\n{stored}/{len(rows)} artifacts present")
    if not ledger.exists():
        print("no ledger: this campaign has never run against this store")
    return 0 if stored == len(rows) else 1


def _cmd_campaign_gc(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.store)
    live = set()
    for ref in args.specs:
        live.update(complete_task_keys(resolve_spec(ref)).values())
    stats, removed = store.gc(live, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"{verb} {stats.removed} object(s), {stats.bytes_freed} bytes; "
        f"kept {stats.kept} live object(s)"
    )
    for key in removed:
        print(f"  {key}")
    return 0


def _campaign_status_follow(args: argparse.Namespace) -> int:
    """Tail the campaign ledger, replaying history then following."""
    spec = _campaign_spec(args)
    store = ArtifactStore(args.store)
    ledger = EventLedger(store.ledger_path(spec.name))
    print(
        f"following campaign {spec.name} @ {args.store} "
        "(ctrl-c to stop)", file=sys.stderr,
    )
    try:
        for event in ledger.follow(poll=0.2):
            name = event.get("event", "?")
            detail = " ".join(
                f"{k}={event[k]}" for k in ("task", "state", "key", "attempt")
                if k in event
            )
            print(f"{name} {detail}".rstrip())
            if name == "run_finished":
                return 0 if event.get("ok", True) else 1
    except KeyboardInterrupt:
        return 130
    return 0


_CAMPAIGN_COMMANDS = {
    "run": _cmd_campaign_run,
    "status": _cmd_campaign_status,
    "resume": _cmd_campaign_resume,
    "gc": _cmd_campaign_gc,
}


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.campaign_command == "status" and getattr(args, "follow", False):
        return _campaign_status_follow(args)
    return _CAMPAIGN_COMMANDS[args.campaign_command](args)


def _cmd_telemetry_summarize(args: argparse.Namespace) -> int:
    records = read_events(Path(args.trace))
    span_rows = [
        [name, count, f"{total:.3f}", f"{mean * 1e3:.2f}", f"{peak * 1e3:.2f}"]
        for name, count, total, mean, peak in summarize_spans(records)
    ]
    if span_rows:
        print(format_table(
            ["span", "count", "total [s]", "mean [ms]", "max [ms]"],
            span_rows, title=f"spans in {args.trace}",
        ))
    else:
        print("no spans recorded")
    scalar_rows = [
        [name,
         ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-",
         f"{value:g}"]
        for name, labels, value in summarize_scalars(final_snapshot(records))
    ]
    if scalar_rows:
        print()
        print(format_table(
            ["metric", "labels", "value"], scalar_rows, title="counters/gauges",
        ))
    return 0


def _cmd_telemetry_export(args: argparse.Namespace) -> int:
    import json

    records = read_events(Path(args.trace))
    if args.format == "chrome":
        text = json.dumps(chrome_trace(records), indent=2, sort_keys=True) + "\n"
    else:
        text = render_prometheus(final_snapshot(records))
    if args.output:
        atomic_write_text(Path(args.output), text)
        print(f"wrote {args.format} export to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


_TELEMETRY_COMMANDS = {
    "summarize": _cmd_telemetry_summarize,
    "export": _cmd_telemetry_export,
}


def _cmd_telemetry(args: argparse.Namespace) -> int:
    return _TELEMETRY_COMMANDS[args.telemetry_command](args)


def _cmd_export(args: argparse.Namespace) -> int:
    out = Path(args.output)
    if args.circuit is None:
        # Library export: only .lib makes sense.
        if out.suffix != ".lib":
            raise ReproError("library export requires a .lib output path")
        lib = default_library(args.tech)
        save_liberty(lib, out)
        print(f"wrote Liberty library to {out}")
        return 0
    _, circuit = _resolve_circuit(args.circuit, args.tech)
    if out.suffix == ".bench":
        save_bench(circuit, out)
    elif out.suffix == ".v":
        save_verilog(circuit, out)
    else:
        raise ReproError(
            f"unknown export format {out.suffix!r} (use .bench, .v, or .lib)"
        )
    print(f"wrote {circuit.name} to {out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the job service until interrupted.

    Deliberately outside ``main``'s central ``--telemetry`` session
    wrapper: the service owns a session of its own (scraped live at
    ``/metrics``), never a process-global one — a globally activated
    session would leak into in-thread fallback jobs.
    """
    import asyncio

    from .service import JobService, TenantPolicy
    from .telemetry import Telemetry

    policy = TenantPolicy(
        max_queued=args.max_queued,
        max_running=args.max_running,
        burst=args.burst,
        refill_per_s=args.rate,
    )
    telemetry = Telemetry(path=args.trace) if args.trace else None
    service = JobService(
        root=Path(args.root),
        workers=args.workers,
        policy=policy,
        max_depth=args.max_depth,
        host=args.host,
        port=args.port,
        telemetry=telemetry,
    )

    async def _serve() -> None:
        await service.start()
        print(
            f"serving on http://{service.host}:{service.port} "
            f"(root {service.root}, {service.workers} worker(s))",
            file=sys.stderr, flush=True,
        )
        try:
            await service.serve_forever()
        finally:
            await service.aclose()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("service stopped", file=sys.stderr)
    if args.trace:
        print(f"wrote telemetry trace to {args.trace}", file=sys.stderr)
    return 0


def _service_client(args: argparse.Namespace):
    from .service import ServiceClient

    return ServiceClient(args.url)


def _print_job_events(client, job_id: str) -> None:
    for event in client.events(job_id):
        name = event.get("event", "?")
        detail = " ".join(
            f"{k}={event[k]}"
            for k in ("task", "state", "key", "attempt", "error")
            if k in event and event[k] is not None
        )
        print(f"{name} {detail}".rstrip())


def _print_job_record(record: dict) -> None:
    print(json.dumps(record, indent=2, sort_keys=True))


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import spec_to_wire

    spec = resolve_spec(args.spec)
    if args.benchmarks:
        spec = spec.with_overrides(benchmarks=tuple(args.benchmarks))
    if args.mc_samples is not None:
        spec = spec.with_overrides(mc_samples=args.mc_samples)
    client = _service_client(args)
    record = client.submit({
        "kind": "campaign",
        "tenant": args.tenant,
        "seed": args.seed,
        "spec": spec_to_wire(spec),
    })
    job_id = str(record["job_id"])
    print(
        f"submitted {job_id} (campaign {record['campaign']}, "
        f"tenant {record['tenant']}, state {record['state']})"
    )
    if args.follow:
        _print_job_events(client, job_id)
    if args.follow or args.wait:
        final = client.wait(job_id, timeout=args.timeout)
        _print_job_record(final)
        return 0 if final.get("state") == "succeeded" else 1
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    client = _service_client(args)
    if args.job is None:
        rows = [
            [r["job_id"], r["tenant"], r["kind"], r["campaign"],
             r["state"],
             f"{r['run_seconds']:.2f}" if r.get("run_seconds") else "-"]
            for r in client.jobs()
        ]
        print(format_table(
            ["job", "tenant", "kind", "campaign", "state", "secs"],
            rows, title=f"jobs @ {args.url}",
        ))
        return 0
    if args.follow:
        _print_job_events(client, args.job)
        record = client.wait(args.job, timeout=args.timeout)
    else:
        record = client.job(args.job)
    _print_job_record(record)
    return 0 if record.get("state") != "failed" else 1


def _cmd_fetch(args: argparse.Namespace) -> int:
    client = _service_client(args)
    # Exact stored bytes: the CLI must not re-encode what it writes, or
    # the bitwise-identity contract breaks at the last hop.
    raw = client.artifact(args.key, tenant=args.tenant)
    if args.output:
        Path(args.output).write_bytes(raw)
        print(f"wrote {len(raw)} bytes to {args.output}", file=sys.stderr)
    else:
        sys.stdout.buffer.write(raw)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    from .provenance import package_version

    version = package_version()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Statistical leakage optimization (DAC 2004 reproduction)",
        epilog=f"repro {version} — `repro info` prints full provenance",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {version}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _telemetry_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--telemetry", default=None, metavar="PATH",
            help="write a JSONL telemetry trace (spans + metrics) to PATH; "
                 "inspect it with `repro telemetry summarize PATH`; results "
                 "are bitwise identical with or without this flag",
        )

    sub.add_parser("list", help="list benchmarks and technologies")

    info = sub.add_parser(
        "info",
        help="structural summary of a circuit, plus build provenance; "
             "omit the circuit to print provenance only",
    )
    info.add_argument(
        "circuit", nargs="?", default=None,
        help="benchmark name or .bench path (optional)",
    )
    info.add_argument("--tech", default="ptm100", help="technology preset")

    analyze = sub.add_parser("analyze", help="timing/power snapshot")
    analyze.add_argument("circuit")
    analyze.add_argument("--tech", default="ptm100")

    optimize = sub.add_parser("optimize", help="run the optimizers")
    optimize.add_argument("circuit")
    optimize.add_argument("--tech", default="ptm100")
    optimize.add_argument(
        "--flow",
        choices=("deterministic", "statistical", "both"),
        default="both",
    )
    optimize.add_argument("--margin", type=float, default=1.10,
                          help="Tmax as a multiple of corner Dmin")
    optimize.add_argument("--yield", dest="yield_target", type=float,
                          default=0.95, help="timing-yield target")
    optimize.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for sharded MC evaluation (0 = all CPUs); "
             "results are bitwise identical for any value",
    )
    optimize.add_argument(
        "--mc-yield", type=int, default=0, metavar="N",
        help="validate the yield constraint by N-sample sharded Monte "
             "Carlo instead of the engine's delay distribution "
             "(0 = engine); needs --engine clark",
    )
    optimize.add_argument(
        "--estimator", choices=ESTIMATOR_NAMES, default="plain",
        help="variance-reduced MC strategy for --mc-yield checks "
             "(plain = frequency estimate)",
    )
    optimize.add_argument(
        "--engine", choices=ENGINE_NAMES, default="clark",
        help="statistical-timing engine for yield evaluation while "
             "--mc-yield is 0 (clark = canonical SSTA)",
    )
    _telemetry_flag(optimize)

    mc = sub.add_parser(
        "mc",
        help="sharded Monte-Carlo validation of the analytic statistics",
    )
    mc.add_argument("circuit", help="benchmark name or .bench path")
    mc.add_argument("--tech", default="ptm100", help="technology preset")
    mc.add_argument("--samples", type=int, default=20000,
                    help="number of sampled dies")
    mc.add_argument("--seed", type=int, default=0, help="root seed")
    mc.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (0 = all CPUs); results are bitwise "
             "identical for any value",
    )
    mc.add_argument(
        "--target-delay", type=float, default=None, metavar="PS",
        help="yield target delay [ps] (default: 1.1x nominal delay)",
    )
    mc.add_argument(
        "--estimator", choices=ESTIMATOR_NAMES, default="plain",
        help="variance-reduced yield estimator (plain = frequency "
             "estimate; isle/sobol/cv need fewer samples for the same "
             "confidence width)",
    )
    mc.add_argument(
        "--engine", choices=ENGINE_NAMES, default="clark",
        help="timing engine for the reference column "
             "(clark = canonical SSTA, labelled 'analytic')",
    )
    mc.add_argument(
        "--bins", type=int, default=None, metavar="N",
        help="lattice bins for --engine histogram (default "
             f"{DEFAULT_BINS}); rejected for other engines",
    )
    _telemetry_flag(mc)

    lint = sub.add_parser(
        "lint",
        help="static analysis (circuit/technology/config rules, or the "
             "codebase rules with --self)",
    )
    lint.add_argument(
        "circuit", nargs="?", default=None,
        help="benchmark name or .bench path (runs circuit/technology/config "
             "passes); omit with --self to only lint the source tree; the "
             "word 'baseline' introduces the baseline subcommands and the "
             "word 'rules' lists every registered rule",
    )
    lint.add_argument(
        "baseline_action", nargs="?", default=None,
        choices=("verify", "prune"),
        help="with 'baseline': verify fails on dead entries, prune "
             "rewrites the file without them",
    )
    lint.add_argument(
        "--self", dest="self_lint", action="store_true",
        help="run the AST codebase pass over the repro source tree",
    )
    lint.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the source-tree passes (0 = all CPUs); "
             "the report is bitwise identical for any value",
    )
    lint.add_argument(
        "--passes", nargs="+", default=None, metavar="PASS",
        choices=PASS_NAMES,
        help="run only these passes (subject must be present), "
             f"e.g. --passes rng; choices: {', '.join(PASS_NAMES)}",
    )
    lint.add_argument("--tech", default="ptm100", help="technology preset")
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (sarif targets GitHub code scanning)",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="suppress findings frozen in FILE; only regressions fail",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="freeze the current active findings into the --baseline "
             "file (default lint-baseline.json) and exit 0",
    )
    lint.add_argument(
        "--paths", nargs="+", default=None, metavar="PATH",
        help="restrict source-tree findings to these files/directories "
             "(pre-commit passes changed files here); whole-program "
             "analyses still see the full tree",
    )
    lint.add_argument(
        "--max-fanout", type=int, default=64,
        help="RPR104 threshold (pins per net)",
    )
    lint.add_argument(
        "--reconvergence-depth", type=int, default=4,
        help="RPR105 search depth (logic levels)",
    )
    lint.add_argument(
        "--ignore", action="append", default=[], metavar="CODE",
        help="disable a rule code (repeatable), e.g. --ignore RPR105",
    )
    lint.add_argument(
        "--target-delay", type=float, default=None, metavar="PS",
        help="explicit delay target [ps] for the RPR307 feasibility check",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="nonzero exit on warnings too, not just errors",
    )
    lint.add_argument(
        "--verbose", action="store_true",
        help="do not truncate repeated findings per rule",
    )
    lint.add_argument(
        "--show-suppressed", action="store_true",
        help="list inline-suppressed findings in the text report (they "
             "are always counted in the summary and carried in "
             "json/sarif output)",
    )

    campaign = sub.add_parser(
        "campaign",
        help="resumable batch runs over a content-addressed result store",
    )
    campaign_sub = campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    def _campaign_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "spec",
            help="bundled spec name (e.g. paper-sweep, paper-sweep-smoke) "
                 "or a .toml/.json spec path",
        )
        p.add_argument(
            "--store", default="campaign-store", metavar="DIR",
            help="artifact store root (default: campaign-store)",
        )
        p.add_argument(
            "--benchmarks", nargs="+", default=None, metavar="NAME",
            help="override the spec's benchmark list",
        )
        p.add_argument(
            "--mc-samples", type=int, default=None, metavar="N",
            help="override the spec's Monte-Carlo sample count (0 disables "
                 "the validation stage)",
        )

    for verb, help_text in (
        ("run", "execute a campaign (finished tasks are cache hits)"),
        ("resume", "re-run a previously started campaign; only tasks "
                   "missing from the store execute"),
    ):
        p = campaign_sub.add_parser(verb, help=help_text)
        _campaign_common(p)
        p.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes for independent tasks (0 = all CPUs); "
                 "artifacts are bitwise identical for any value",
        )
        p.add_argument(
            "--force", action="store_true",
            help="re-execute every task even when its artifact is stored",
        )
        p.add_argument(
            "--summary-json", default=None, metavar="FILE",
            help="also write the machine-readable run summary to FILE",
        )
        _telemetry_flag(p)

    status = campaign_sub.add_parser(
        "status",
        help="per-task store/ledger state; exit 0 iff the campaign is "
             "complete",
    )
    _campaign_common(status)
    status.add_argument(
        "--follow", action="store_true",
        help="tail the campaign ledger live (replays history, then "
             "follows appends until run_finished)",
    )

    gc = campaign_sub.add_parser(
        "gc",
        help="remove store objects not reachable from the given spec(s)",
    )
    gc.add_argument(
        "specs", nargs="+",
        help="spec names/paths whose artifacts must be kept",
    )
    gc.add_argument(
        "--store", default="campaign-store", metavar="DIR",
        help="artifact store root (default: campaign-store)",
    )
    gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be removed without deleting anything",
    )

    telemetry = sub.add_parser(
        "telemetry",
        help="inspect or convert a JSONL telemetry trace",
    )
    telemetry_sub = telemetry.add_subparsers(
        dest="telemetry_command", required=True
    )
    tele_summarize = telemetry_sub.add_parser(
        "summarize",
        help="per-span timing rollup and counter/gauge values",
    )
    tele_summarize.add_argument("trace", help="JSONL trace path")
    tele_export = telemetry_sub.add_parser(
        "export",
        help="convert a trace to Chrome trace-event JSON or Prometheus "
             "text exposition",
    )
    tele_export.add_argument("trace", help="JSONL trace path")
    tele_export.add_argument(
        "--format", choices=("chrome", "prometheus"), default="chrome",
        help="output format (chrome loads in chrome://tracing / Perfetto)",
    )
    tele_export.add_argument(
        "--output", "-o", default=None, metavar="FILE",
        help="write to FILE (atomic) instead of stdout",
    )

    export = sub.add_parser(
        "export",
        help="write a circuit (.bench/.v) or the cell library (.lib)",
    )
    export.add_argument(
        "circuit", nargs="?", default=None,
        help="benchmark name or .bench path; omit to export the library",
    )
    export.add_argument("output", help="output path (.bench, .v, or .lib)")
    export.add_argument("--tech", default="ptm100")

    serve = sub.add_parser(
        "serve",
        help="run the job service: an HTTP API over the campaign engine",
    )
    serve.add_argument(
        "--root", default="service-root", metavar="DIR",
        help="service state root; each tenant gets "
             "DIR/tenants/<tenant>/{store,jobs} (default: service-root)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 picks an ephemeral port; default: 8321)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="concurrent job subprocesses (default: 2)",
    )
    serve.add_argument(
        "--max-queued", type=int, default=16,
        help="per-tenant queued-job quota (default: 16)",
    )
    serve.add_argument(
        "--max-running", type=int, default=4,
        help="per-tenant concurrent-job cap (default: 4)",
    )
    serve.add_argument(
        "--burst", type=float, default=8.0,
        help="token-bucket burst capacity per tenant (default: 8)",
    )
    serve.add_argument(
        "--rate", type=float, default=4.0,
        help="sustained submissions/second per tenant (default: 4)",
    )
    serve.add_argument(
        "--max-depth", type=int, default=64,
        help="service-wide queued-job bound (default: 64)",
    )
    serve.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write the service telemetry trace (JSONL) on shutdown; "
             "live metrics are always at /metrics",
    )

    submit = sub.add_parser(
        "submit",
        help="submit a campaign spec to a running job service",
    )
    submit.add_argument(
        "spec",
        help="bundled spec name (e.g. paper-sweep-smoke) or a "
             ".toml/.json spec path — resolved locally, validated again "
             "by the server",
    )
    submit.add_argument(
        "--url", default="http://127.0.0.1:8321",
        help="service base URL (default: http://127.0.0.1:8321)",
    )
    submit.add_argument("--tenant", default="default")
    submit.add_argument(
        "--seed", type=int, default=0,
        help="job seed material (threaded to the executor session)",
    )
    submit.add_argument(
        "--benchmarks", nargs="+", default=None, metavar="NAME",
        help="override the spec's benchmark list",
    )
    submit.add_argument(
        "--mc-samples", type=int, default=None, metavar="N",
        help="override the spec's Monte-Carlo sample count",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job settles; exit 0 iff it succeeded",
    )
    submit.add_argument(
        "--follow", action="store_true",
        help="stream the job's ledger events while waiting (implies --wait)",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0,
        help="--wait/--follow deadline in seconds (default: 600)",
    )

    job_status = sub.add_parser(
        "status",
        help="list jobs on a running service, or poll/follow one job",
    )
    job_status.add_argument(
        "job", nargs="?", default=None,
        help="job id; omit to list all jobs",
    )
    job_status.add_argument(
        "--url", default="http://127.0.0.1:8321",
        help="service base URL (default: http://127.0.0.1:8321)",
    )
    job_status.add_argument(
        "--follow", action="store_true",
        help="stream the job's ledger events until it settles",
    )
    job_status.add_argument(
        "--timeout", type=float, default=600.0,
        help="--follow deadline in seconds (default: 600)",
    )

    fetch = sub.add_parser(
        "fetch",
        help="fetch one artifact's exact stored bytes from a service",
    )
    fetch.add_argument("key", help="content-address (store key) to fetch")
    fetch.add_argument(
        "--url", default="http://127.0.0.1:8321",
        help="service base URL (default: http://127.0.0.1:8321)",
    )
    fetch.add_argument("--tenant", default="default")
    fetch.add_argument(
        "--output", "-o", default=None, metavar="FILE",
        help="write to FILE instead of stdout (bytes are written "
             "verbatim either way)",
    )
    return parser


_COMMANDS = {
    "campaign": _cmd_campaign,
    "export": _cmd_export,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "fetch": _cmd_fetch,
    "telemetry": _cmd_telemetry,
    "lint": _cmd_lint,
    "list": _cmd_list,
    "info": _cmd_info,
    "analyze": _cmd_analyze,
    "mc": _cmd_mc,
    "optimize": _cmd_optimize,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code.

    ``--telemetry PATH`` (on the commands that accept it) wraps the whole
    command in one telemetry session and writes the JSONL trace on exit —
    command implementations never check the flag themselves.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    telemetry_path = getattr(args, "telemetry", None)
    try:
        if telemetry_path:
            with telemetry_session(path=telemetry_path):
                code = _COMMANDS[args.command](args)
            print(f"wrote telemetry trace to {telemetry_path}", file=sys.stderr)
            return code
        return _COMMANDS[args.command](args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
