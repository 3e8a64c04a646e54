"""The telemetry subsystem: metrics, spans, worker absorption, exports."""

import gc
import json
import multiprocessing
import os
import pickle

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    NULL_METRIC,
    NULL_SPAN,
    NULL_TELEMETRY,
    SPAN_SECONDS,
    MetricsRegistry,
    RegistrySnapshot,
    Telemetry,
    TraceContext,
    activate,
    bind_telemetry,
    chrome_trace,
    final_snapshot,
    get_telemetry,
    read_events,
    render_prometheus,
    span_records,
    summarize_scalars,
    summarize_spans,
    telemetry_enabled,
    telemetry_session,
    validate_chrome_trace,
)


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(2.0)
        assert reg.snapshot().value("hits") == 3.0

    def test_counter_rejects_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(TelemetryError):
            reg.counter("hits").inc(-1.0)

    def test_labels_partition_series(self):
        reg = MetricsRegistry()
        reg.counter("tasks", state="ok").inc()
        reg.counter("tasks", state="failed").inc(5)
        snap = reg.snapshot()
        assert snap.value("tasks", state="ok") == 1.0
        assert snap.value("tasks", state="failed") == 5.0
        assert snap.get("tasks", state="missing") is None

    def test_name_can_also_be_a_label_key(self):
        # The SPAN_SECONDS histogram labels series by `name=` — the
        # positional-only first parameter keeps that legal.
        reg = MetricsRegistry()
        reg.histogram("span_seconds", name="opt.pass").observe(0.5)
        assert reg.snapshot().count("span_seconds", name="opt.pass") == 1

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(3)
        reg.gauge("depth").set(7)
        assert reg.snapshot().value("depth") == 7.0

    def test_histogram_sum_count_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        sample = reg.snapshot().get("lat")
        assert sample.count == 3
        assert sample.value == pytest.approx(5.55)
        assert sample.bucket_counts == (1, 1, 1)  # <=0.1, <=1.0, +Inf

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TelemetryError):
            reg.gauge("x")

    def test_snapshot_sorted_and_picklable(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        snap = reg.snapshot()
        assert [s.name for s in snap] == ["a", "b"]
        assert pickle.loads(pickle.dumps(snap)) == snap

    def test_snapshot_json_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("n", kind="mc").inc(4)
        reg.histogram("lat").observe(0.2)
        snap = reg.snapshot()
        assert RegistrySnapshot.from_json(snap.to_json()) == snap

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg in (a, b):
            reg.counter("n").inc(2)
            reg.histogram("lat").observe(0.1)
            reg.gauge("g").set(1 if reg is a else 9)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap.value("n") == 4.0
        assert snap.count("lat") == 2
        assert snap.value("g") == 9.0  # last write wins

    def test_merge_order_determinism(self):
        shards = []
        for i in range(4):
            reg = MetricsRegistry()
            reg.counter("n").inc(i + 1)
            reg.gauge("last").set(i)
            shards.append(reg.snapshot())
        merged = MetricsRegistry()
        for snap in shards:  # fixed shard order => fixed result
            merged.merge(snap)
        snap = merged.snapshot()
        assert snap.value("n") == 10.0
        assert snap.value("last") == 3.0


class TestNullBackend:
    def test_disabled_backend_is_the_shared_singleton(self):
        tele = get_telemetry()
        assert tele is NULL_TELEMETRY
        assert not telemetry_enabled()
        assert tele.span("x", a=1) is NULL_SPAN
        assert tele.counter("n") is NULL_METRIC
        assert tele.histogram("h", kind="x") is NULL_METRIC

    def test_null_objects_accept_the_full_surface(self):
        with NULL_TELEMETRY.span("x") as span:
            span.set(a=1).end()
        NULL_TELEMETRY.begin_span("y", parent_id=7).end()
        NULL_TELEMETRY.event("e", detail=1)
        NULL_TELEMETRY.counter("n").inc()
        NULL_TELEMETRY.gauge("g").set(2)
        NULL_TELEMETRY.histogram("h").observe(0.1)
        assert NULL_TELEMETRY.trace_context() is None
        assert NULL_TELEMETRY.absorb(object(), tid=3) == 0.0

    def test_disabled_session_writes_nothing(self, tmp_path):
        NULL_TELEMETRY.counter("n").inc(100)
        assert list(tmp_path.iterdir()) == []


class TestSpans:
    def test_nesting_records_parents(self):
        with telemetry_session() as tele:
            with tele.span("outer") as outer:
                with tele.span("inner"):
                    pass
        inner, = tele.finished_spans("inner")
        assert inner.parent_id == outer.span_id
        out, = tele.finished_spans("outer")
        assert out.parent_id is None
        assert out.duration >= inner.duration >= 0.0

    def test_begin_span_does_not_join_the_stack(self):
        with telemetry_session() as tele:
            open_span = tele.begin_span("loop.task")
            with tele.span("unrelated"):
                pass
            open_span.end()
        unrelated, = tele.finished_spans("unrelated")
        assert unrelated.parent_id is None  # not parented to loop.task

    def test_attrs_and_events(self):
        with telemetry_session() as tele:
            with tele.span("work", phase=1) as span:
                span.set(result="ok")
            tele.event("mark", reason="test")
        span, = tele.finished_spans("work")
        assert span.attrs == {"phase": 1, "result": "ok"}
        event, = tele.finished_events("mark")
        assert event.attrs == {"reason": "test"}

    def test_every_span_feeds_the_span_seconds_histogram(self):
        with telemetry_session() as tele:
            with tele.span("a"):
                pass
            with tele.span("a"):
                pass
        assert tele.snapshot().count(SPAN_SECONDS, name="a") == 2

    def test_end_is_idempotent(self):
        with telemetry_session() as tele:
            span = tele.begin_span("once")
            span.end()
            span.end()
        assert len(tele.finished_spans("once")) == 1


class TestActivation:
    def test_session_activates_and_restores(self):
        assert not telemetry_enabled()
        with telemetry_session() as tele:
            assert get_telemetry() is tele
            assert telemetry_enabled()
        assert get_telemetry() is NULL_TELEMETRY

    def test_same_process_nesting_is_an_error(self):
        with telemetry_session():
            with pytest.raises(TelemetryError):
                with telemetry_session():
                    pass

    def test_fork_inherited_session_is_replaced(self):
        # Simulate a fork()ed worker: the inherited parent session has a
        # foreign pid, so activating the worker session must not raise.
        with telemetry_session():
            stale = get_telemetry()
            stale.pid = stale.pid + 1  # pretend we are the child process
            worker = Telemetry.for_worker(TraceContext("t", 0))
            with activate(worker):
                assert get_telemetry() is worker
            # Nothing sane to restore: the stale copy belongs elsewhere.
            assert get_telemetry() is NULL_TELEMETRY


def _forked_child(inherited):
    """Runs in a real fork()ed child of a traced parent; exit code is the verdict."""
    if get_telemetry() is not NULL_TELEMETRY:
        raise SystemExit(2)
    with get_telemetry().span("child.work"):
        pass
    # The inherited copy belongs to the parent: closing it here (as an
    # atexit hook or a GC-triggered context exit might) must write nothing.
    inherited.close()


class TestRealFork:
    def test_forked_child_is_isolated_from_parent_session(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        fork = multiprocessing.get_context("fork")
        with telemetry_session(path=path) as tele:
            with tele.span("parent.work"):
                child = fork.Process(target=_forked_child, args=(tele,))
                child.start()
                child.join(timeout=60)
                if child.is_alive():
                    child.kill()
            assert child.exitcode == 0
            assert not path.exists()
        events = read_events(path)
        headers = [e for e in events if e["type"] == "meta"]
        assert len(headers) == 1
        assert headers[0]["pid"] == os.getpid()
        spans = [e["name"] for e in events if e["type"] == "span"]
        assert spans == ["parent.work"]


class TestContextBinding:
    def test_bind_overrides_resolution(self):
        session = Telemetry()
        with bind_telemetry(session):
            assert get_telemetry() is session
        assert get_telemetry() is NULL_TELEMETRY

    def test_bind_wins_over_global_activation(self):
        # The service case: a globally activated CLI session must not
        # leak into a task that carries its own bound session.
        bound = Telemetry()
        with telemetry_session() as ambient:
            with bind_telemetry(bound):
                assert get_telemetry() is bound
            assert get_telemetry() is ambient

    def test_bind_null_silences_inside_active_session(self):
        # An in-thread fallback job binds NULL so it cannot record into
        # the service's live session.
        with telemetry_session() as ambient:
            with bind_telemetry(NULL_TELEMETRY):
                assert get_telemetry() is NULL_TELEMETRY
            assert get_telemetry() is ambient

    def test_bindings_nest(self):
        outer, inner = Telemetry(), Telemetry()
        with bind_telemetry(outer):
            with bind_telemetry(inner):
                assert get_telemetry() is inner
            assert get_telemetry() is outer

    def test_threads_resolve_their_own_binding(self):
        import threading

        sessions = {name: Telemetry() for name in ("a", "b")}
        resolved = {}
        barrier = threading.Barrier(2)

        def work(name):
            with bind_telemetry(sessions[name]):
                barrier.wait()  # both bindings live simultaneously
                resolved[name] = get_telemetry()

        threads = [
            threading.Thread(target=work, args=(name,)) for name in sessions
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert resolved["a"] is sessions["a"]
        assert resolved["b"] is sessions["b"]
        # The binding never escaped its threads.
        assert get_telemetry() is NULL_TELEMETRY

    def test_asyncio_tasks_resolve_their_own_binding(self):
        import asyncio

        sessions = {name: Telemetry() for name in ("a", "b")}

        async def work(name):
            with bind_telemetry(sessions[name]):
                await asyncio.sleep(0.01)  # interleave the two tasks
                return get_telemetry()

        async def main():
            return await asyncio.gather(work("a"), work("b"))

        resolved_a, resolved_b = asyncio.run(main())
        assert resolved_a is sessions["a"]
        assert resolved_b is sessions["b"]

    def test_foreign_pid_binding_resolves_null(self):
        # A fork()ed worker inheriting a bound parent session must not
        # record into the parent's object.
        session = Telemetry()
        with bind_telemetry(session):
            session.pid = session.pid + 1  # pretend we are the child
            assert get_telemetry() is NULL_TELEMETRY


class TestWorkerAbsorption:
    def test_trace_context_is_picklable(self):
        with telemetry_session() as tele:
            with tele.span("dispatch") as span:
                ctx = tele.trace_context(parent=span)
        assert pickle.loads(pickle.dumps(ctx)) == ctx
        assert ctx.parent_span_id == span.span_id

    def test_absorb_reids_reparents_and_lanes(self):
        with telemetry_session() as tele:
            with tele.span("mc.run") as run_span:
                ctx = tele.trace_context(parent=run_span)
                worker = Telemetry.for_worker(ctx)
                with worker.span("mc.shard", shard=0):
                    with worker.span("kernel"):
                        pass
                worker.counter("mc_shards_total").inc()
                bundle = worker.export_worker()
                tele.absorb(bundle, tid=100, parent_id=ctx.parent_span_id)
        shard, = tele.finished_spans("mc.shard")
        kernel, = tele.finished_spans("kernel")
        assert shard.tid == kernel.tid == 100
        assert shard.parent_id == run_span.span_id  # root re-parented
        assert kernel.parent_id == shard.span_id  # intra-worker edge kept
        own_ids = {s.span_id for s in tele.finished_spans()}
        assert len(own_ids) == 3  # fresh ids, no collisions
        assert tele.snapshot().value("mc_shards_total") == 1.0

    def test_absorb_merges_worker_metrics_in_order(self):
        with telemetry_session() as tele:
            bundles = []
            for i in range(3):
                worker = Telemetry.for_worker(TraceContext(tele.trace_id, 0))
                worker.counter("n").inc(i + 1)
                bundles.append(worker.export_worker())
            for i, bundle in enumerate(bundles):
                tele.absorb(bundle, tid=100 + i)
        assert tele.snapshot().value("n") == 6.0


class TestTraceFile:
    def _write_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with telemetry_session(path=path) as tele:
            with tele.span("opt.flow", circuit="c17"):
                with tele.span("opt.pass"):
                    pass
            tele.event("mark")
            tele.counter("n", kind="x").inc(2)
        return path

    def test_jsonl_layout(self, tmp_path):
        path = self._write_trace(tmp_path)
        records = read_events(path)
        kinds = [r["type"] for r in records]
        assert kinds[0] == "meta"
        assert kinds[-1] == "metrics"
        assert kinds.count("span") == 2
        assert kinds.count("event") == 1
        meta = records[0]
        assert meta["clock"] == "perf_counter"
        assert meta["package"] == "repro"

    def test_reader_tolerates_torn_tail(self, tmp_path):
        path = self._write_trace(tmp_path)
        intact = len(read_events(path))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "span", "name": "torn')  # no newline
        assert len(read_events(path)) == intact

    def test_reader_rejects_missing_file(self, tmp_path):
        with pytest.raises(TelemetryError):
            read_events(tmp_path / "absent.jsonl")

    def test_final_snapshot_recovers_metrics(self, tmp_path):
        path = self._write_trace(tmp_path)
        snap = final_snapshot(read_events(path))
        assert snap.value("n", kind="x") == 2.0
        assert snap.count(SPAN_SECONDS, name="opt.pass") == 1

    def test_chrome_trace_valid_and_complete(self, tmp_path):
        path = self._write_trace(tmp_path)
        records = read_events(path)
        payload = chrome_trace(records)
        validate_chrome_trace(payload)
        phases = [e["ph"] for e in payload["traceEvents"]]
        assert phases.count("X") == len(span_records(records))
        assert phases.count("i") == 1
        assert json.dumps(payload)  # serializable as-is

    def test_validator_rejects_non_monotone_lanes(self):
        with pytest.raises(TelemetryError):
            validate_chrome_trace({"traceEvents": [
                {"name": "a", "ts": 5.0, "dur": 1.0, "tid": 0},
                {"name": "b", "ts": 1.0, "dur": 1.0, "tid": 0},
            ]})
        with pytest.raises(TelemetryError):
            validate_chrome_trace({"traceEvents": []})

    def test_prometheus_rendering(self, tmp_path):
        path = self._write_trace(tmp_path)
        text = render_prometheus(final_snapshot(read_events(path)))
        assert '# TYPE repro_n counter' in text
        assert 'repro_n{kind="x"} 2' in text
        assert 'repro_span_seconds_bucket{name="opt.pass",le="+Inf"} 1' in text

    def test_summaries(self, tmp_path):
        path = self._write_trace(tmp_path)
        records = read_events(path)
        rows = summarize_spans(records)
        assert [row[0] for row in rows] == ["opt.flow", "opt.pass"]
        assert rows[0][1] == 1  # count
        scalars = summarize_scalars(final_snapshot(records))
        assert ("n", {"kind": "x"}, 2.0) in scalars


class TestOptimizeSpanCoverage:
    #: Spans that only nest others; their self time is what no named
    #: layer accounts for.
    CONTAINERS = ("opt.flow", "opt.phase", "opt.pass")

    def test_named_spans_cover_the_flow(self, tmp_path, c432, spec):
        from repro.circuit import build_variation_model
        from repro.core import optimize_statistical

        varmodel = build_variation_model(c432, spec)
        path = tmp_path / "trace.jsonl"
        # A collection pause left over from earlier tests would land in
        # whichever stretch of the ~0.4 s flow it hits; start clean.
        gc.collect()
        with telemetry_session(path=path):
            optimize_statistical(c432, spec, varmodel)
        spans = span_records(read_events(path))
        covered_by_children = {}
        for span in spans:
            parent = span["parent_id"]
            covered_by_children[parent] = covered_by_children.get(parent, 0.0) + span["dur"]
        [flow] = [s for s in spans if s["name"] == "opt.flow"]
        uncovered = sum(
            s["dur"] - covered_by_children.get(s["span_id"], 0.0)
            for s in spans
            if s["name"] in self.CONTAINERS
        )
        names = {s["name"] for s in spans}
        assert {"opt.setup", "opt.candidates", "opt.objective", "ssta.delays",
                "ssta.propagate", "ssta.criticality", "leakage.analyze"} <= names
        assert 1.0 - uncovered / flow["dur"] >= 0.95


class TestSSTAReuseCounter:
    def test_reuses_are_the_runs_that_skip_propagation(self, c432, spec):
        from repro.circuit import build_variation_model
        from repro.core import optimize_statistical

        varmodel = build_variation_model(c432, spec)
        with telemetry_session() as tele:
            optimize_statistical(c432, spec, varmodel)
        runs = tele.finished_spans("ssta.run")
        propagated = {s.parent_id for s in tele.finished_spans("ssta.propagate")}
        skipped = [s for s in runs if s.span_id not in propagated]
        reused = tele.counter("ssta_reused_total").value
        assert reused > 0
        assert reused == len(skipped)
        assert all(s.attrs["reused"] for s in skipped)
        assert not any(s.attrs["reused"] for s in runs if s.span_id in propagated)
        assert tele.counter("ssta_runs_total").value == len(runs)


class TestLeakageCounter:
    def test_one_evaluation_per_objective_and_snapshot(self, c432, spec):
        from repro.circuit import build_variation_model
        from repro.core import optimize_statistical

        varmodel = build_variation_model(c432, spec)
        with telemetry_session() as tele:
            optimize_statistical(c432, spec, varmodel)
        objectives = tele.finished_spans("opt.objective")
        evals = tele.finished_spans("leakage.analyze")
        assert objectives
        assert len(tele.finished_spans("opt.metrics")) == 2
        assert tele.counter("leakage_evals_total").value == len(objectives) + 2
        assert len(evals) == len(objectives) + 2
        assert all(s.attrs["gates"] == c432.n_gates for s in evals)
        assert all(1 <= s.attrs["groups"] <= 16 for s in evals)


class TestWorkCounters:
    """Deterministic work counts: fixed per propagation, STA run and pass."""

    def test_merge_sta_and_move_counts_on_an_optimize_trace(self, c432, spec, monkeypatch):
        import repro.timing.sta as sta
        from repro.circuit import build_variation_model
        from repro.core import optimize_statistical
        from repro.timing import TimingView

        view = TimingView(c432)
        # Per propagation: batched merge calls (the schedule's waves with a
        # merge, the output fold included), merged rows (every fanin past a
        # gate's first, plus the output fold's) and output-fold rows.
        merge_calls = view.waves.n_merge_calls
        fold_merges = view.primary_output_indices().size - 1
        merge_rows = sum(max(f.size - 1, 0) for f in view.fanin_gates) + fold_merges
        assert (merge_calls, merge_rows, fold_merges) == (28, 174, 6)
        arrival_passes = []
        original = sta._arrival_times
        monkeypatch.setattr(
            sta, "_arrival_times",
            lambda *args: arrival_passes.append(1) or original(*args),
        )

        varmodel = build_variation_model(c432, spec)
        with telemetry_session() as tele:
            optimize_statistical(c432, spec, varmodel)
        propagations = (
            tele.counter("ssta_runs_total").value
            - tele.counter("ssta_reused_total").value
        )
        assert propagations == len(tele.finished_spans("ssta.propagate")) > 0
        assert tele.counter("ssta_merge_calls_total").value == propagations * merge_calls
        assert tele.counter("ssta_merge_rows_total").value == propagations * merge_rows
        assert tele.counter("ssta_fold_merges_total").value == propagations * fold_merges
        assert tele.counter("sta_runs_total").value == len(arrival_passes) > 0
        evaluated = tele.counter("opt_moves_evaluated_total", flow="statistical").value
        scored = tele.counter("opt_candidates_total", flow="statistical").value
        assert evaluated > scored > 0
