"""Schema regression tests for the committed benchmark result JSONs.

The ``benchmarks/results/*.json`` artifacts are consumed downstream
(docs tables, the campaign report, exp cross-references), so their
shape is an interface: a bench refactor that silently drops a key ships
a result file nothing else can read.  These tests pin the schemas of
the machine-readable records this repo commits —

* **exp17** (parallel scaling): every run must carry the per-shard
  worker-startup attribution alongside the speedup, because a
  ``speedup < 1`` row without ``worker_startup_seconds_total`` is
  exactly the misleading artifact the attribution fields exist to fix;
* **exp20** (variance reduction): every (circuit, eta, estimator, n)
  cell must report the full estimate tuple plus the derived
  samples-to-target-CI, and the committed numbers themselves must still
  back the headline >= 10x ISLE claim;
* **exp21** (job service): every worker-pool run must carry both
  service-level numbers — submit-to-first-event latency and settled
  jobs/minute — and record that every job succeeded, because a
  throughput figure over partially-failed jobs is not a throughput
  figure;
* **exp22** (engine cross-validation): every registered timing engine
  must appear for every circuit with yields, errors, KS distance, and
  runtime, and the committed numbers must still back the stated
  tolerance claim for the pinned (histogram, mc) backends;
* **BENCH_optimize.json** (the root-level runtime trajectory that
  ``bench_exp05`` appends to): every row must carry the wall time, the
  per-span self times and SSTA counters, the flow's outcome and the
  provenance of the measured source, and every recorded source version
  must cover every circuit of the record: the full ISCAS85 suite, c432
  to c7552, from the sources that first recorded it on;
* **BENCH_startup.json** (the root-level cold-start trajectory that
  ``benchmarks/bench_startup.py`` appends to): every row must carry the
  entry point, its wall-time spread over at least five fresh
  interpreters, peak RSS, the modules imported and whether
  ``scipy.stats`` was among them, and the provenance of a committed
  source; every recording covers every entry point, and no entry point
  of a source recorded after the ``scipy.special`` split loads
  ``scipy.stats``.

A missing artifact is a failure, not a skip: a claim the docs make
about a record nobody committed is an unbacked claim.  Regenerating the
records with the bench suite rewrites the files, and these tests then
hold the new copies to the same contract.
"""

import json
import math
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"


def load(name, directory=RESULTS):
    path = directory / name
    if not path.exists():
        pytest.fail(f"{path.relative_to(ROOT)} is not committed")
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def exp17():
    return load("exp17_parallel_scaling.json")


@pytest.fixture(scope="module")
def exp20():
    return load("exp20_variance_reduction.json")


@pytest.fixture(scope="module")
def exp21():
    return load("exp21_service.json")


@pytest.fixture(scope="module")
def exp22():
    return load("exp22_engine_xval.json")


EXP17_RUN_KEYS = {
    "mc_run_seconds",
    "speedup_vs_serial",
    "shard_count",
    "shard_seconds_total",
    "worker_startup_seconds_total",
    "worker_startup_shards",
    "worker_startup_seconds_mean",
    "leak_mean_w",
    "leak_p95_w",
    "delay_mean_s",
    "delay_p95_s",
}


class TestExp17Schema:
    def test_top_level_keys(self, exp17):
        assert {
            "circuit", "n_samples", "seed", "cpu_count", "timing_source",
            "runs", "bitwise_identical_across_jobs",
        } <= set(exp17)
        assert exp17["timing_source"] == "telemetry:span_seconds"
        assert exp17["bitwise_identical_across_jobs"] is True

    def test_every_run_has_the_full_record(self, exp17):
        assert "1" in exp17["runs"]
        for jobs, run in exp17["runs"].items():
            assert set(run) == EXP17_RUN_KEYS, jobs
            assert run["mc_run_seconds"] > 0.0, jobs
            assert run["shard_count"] > 0, jobs

    def test_startup_attribution_is_consistent(self, exp17):
        # Serial pays no pool spawn; a pooled run observes one startup
        # per shard (zero only if the pool degraded in-process), and
        # the mean is total/count.
        for jobs, run in exp17["runs"].items():
            shards = run["worker_startup_shards"]
            total = run["worker_startup_seconds_total"]
            if jobs == "1":
                assert shards == 0 and total == 0.0
                continue
            assert shards in (0, run["shard_count"]), jobs
            assert total >= 0.0, jobs
            expected_mean = total / shards if shards else 0.0
            assert math.isclose(
                run["worker_startup_seconds_mean"], expected_mean,
                rel_tol=1e-12, abs_tol=0.0,
            ), jobs

    def test_statistics_identical_across_jobs(self, exp17):
        base = exp17["runs"]["1"]
        for jobs, run in exp17["runs"].items():
            for key in ("leak_mean_w", "leak_p95_w", "delay_mean_s",
                        "delay_p95_s"):
                assert run[key] == base[key], (jobs, key)


EXP20_CELL_KEYS = {
    "timing_yield",
    "std_error",
    "n_effective",
    "variance_reduction",
    "samples_to_target_ci",
}


class TestExp20Schema:
    def test_top_level_keys(self, exp20):
        assert {
            "seed", "sample_counts", "etas", "estimators", "ci_halfwidth",
            "ci_z", "headline", "circuits",
        } <= set(exp20)
        assert set(exp20["estimators"]) == {"plain", "isle", "sobol", "cv"}
        assert exp20["ci_halfwidth"] > 0.0

    def test_grid_is_complete(self, exp20):
        etas = {str(e) for e in exp20["etas"]}
        ns = {str(n) for n in exp20["sample_counts"]}
        assert set(exp20["circuits"]) == {"c432", "c880"}
        for circuit, targets in exp20["circuits"].items():
            assert set(targets) == etas, circuit
            for eta, t in targets.items():
                assert t["target_delay_s"] > 0.0, (circuit, eta)
                assert set(t["estimators"]) == set(exp20["estimators"])
                for name, curve in t["estimators"].items():
                    assert set(curve) == ns, (circuit, eta, name)
                    for n, cell in curve.items():
                        assert set(cell) == EXP20_CELL_KEYS, (
                            circuit, eta, name, n
                        )
                        assert 0.0 <= cell["timing_yield"] <= 1.0
                        assert cell["std_error"] >= 0.0
                        assert cell["n_effective"] > 0.0

    def test_committed_numbers_back_the_headline(self, exp20):
        head = exp20["headline"]
        n_ref = str(max(exp20["sample_counts"]))
        for circuit, targets in exp20["circuits"].items():
            cell = targets[str(head["eta"])]["estimators"][
                head["estimator"]
            ][n_ref]
            assert cell["variance_reduction"] >= head["floor"], (
                circuit, cell["variance_reduction"]
            )

    def test_samples_to_ci_matches_the_scaling_law(self, exp20):
        se_target = exp20["ci_halfwidth"] / exp20["ci_z"]
        for circuit, targets in exp20["circuits"].items():
            for eta, t in targets.items():
                for name, curve in t["estimators"].items():
                    for n, cell in curve.items():
                        se = cell["std_error"]
                        expected = (
                            int(n) * (se / se_target) ** 2
                            if se > 0.0 else 0.0
                        )
                        assert math.isclose(
                            cell["samples_to_target_ci"], expected,
                            rel_tol=1e-12, abs_tol=0.0,
                        ), (circuit, eta, name, n)


EXP21_RUN_KEYS = {
    "workers",
    "all_succeeded",
    "elapsed_seconds",
    "jobs_per_minute",
    "job_run_seconds_total",
    "submit_to_first_event_seconds_mean",
    "submit_to_first_event_seconds_max",
}


class TestExp21Schema:
    def test_top_level_keys(self, exp21):
        assert {
            "campaign", "jobs_per_run", "tenants", "margins",
            "worker_counts", "cpu_count", "timing_source", "runs",
        } <= set(exp21)
        assert exp21["timing_source"] == (
            "monotonic:submit->first-event / settle-window"
        )
        assert exp21["jobs_per_run"] == (
            len(exp21["tenants"]) * len(exp21["margins"])
        )

    def test_every_pool_size_has_the_full_record(self, exp21):
        assert set(exp21["runs"]) == {
            str(w) for w in exp21["worker_counts"]
        }
        for workers, run in exp21["runs"].items():
            assert set(run) == EXP21_RUN_KEYS, workers
            assert run["workers"] == int(workers)
            assert run["all_succeeded"] is True, workers
            assert run["elapsed_seconds"] > 0.0, workers
            assert run["jobs_per_minute"] > 0.0, workers

    def test_latencies_are_positive_and_ordered(self, exp21):
        for workers, run in exp21["runs"].items():
            mean = run["submit_to_first_event_seconds_mean"]
            peak = run["submit_to_first_event_seconds_max"]
            assert 0.0 < mean <= peak, workers


EXP22_ENGINE_KEYS = {
    "runtime_seconds",
    "mean_s",
    "sigma_s",
    "ks_distance",
    "yields",
    "yield_errors",
    "max_yield_error",
}


class TestExp22Schema:
    def test_top_level_keys(self, exp22):
        assert {
            "truth", "margins", "tolerance", "pinned_engines",
            "engine_params", "circuits",
        } <= set(exp22)
        assert exp22["truth"]["engine"] == "mc"
        assert exp22["truth"]["n_samples"] >= 10000
        # The mc backend must not be validated against its own seed.
        assert exp22["truth"]["seed"] != (
            exp22["engine_params"]["mc"]["seed"]
        )
        assert len(exp22["margins"]) == 3
        assert exp22["tolerance"] > 0.0

    def test_every_engine_covers_every_circuit(self, exp22):
        from repro.engines import ENGINE_NAMES

        margin_keys = {f"m{m:g}" for m in exp22["margins"]}
        assert set(exp22["circuits"]) == {"c432", "c880"}
        assert set(exp22["engine_params"]) == set(ENGINE_NAMES)
        for circuit, c in exp22["circuits"].items():
            assert c["nominal_mean_s"] > 0.0, circuit
            assert set(c["truth"]["yields"]) == margin_keys, circuit
            assert set(c["engines"]) == set(ENGINE_NAMES), circuit
            for name, e in c["engines"].items():
                assert set(e) == EXP22_ENGINE_KEYS, (circuit, name)
                assert set(e["yields"]) == margin_keys, (circuit, name)
                assert set(e["yield_errors"]) == margin_keys, (
                    circuit, name
                )
                assert e["runtime_seconds"] > 0.0, (circuit, name)
                assert 0.0 <= e["ks_distance"] <= 1.0, (circuit, name)
                for key, y in e["yields"].items():
                    assert 0.0 <= y <= 1.0, (circuit, name, key)

    def test_errors_are_consistent_with_yields(self, exp22):
        for circuit, c in exp22["circuits"].items():
            truth = c["truth"]["yields"]
            for name, e in c["engines"].items():
                for key, err in e["yield_errors"].items():
                    expected = abs(e["yields"][key] - truth[key])
                    assert math.isclose(
                        err, expected, rel_tol=1e-12, abs_tol=1e-15
                    ), (circuit, name, key)
                assert math.isclose(
                    e["max_yield_error"],
                    max(e["yield_errors"].values()),
                    rel_tol=1e-12, abs_tol=0.0,
                ), (circuit, name)

    def test_committed_numbers_back_the_tolerance_claim(self, exp22):
        tol = exp22["tolerance"]
        assert set(exp22["pinned_engines"]) == {"histogram", "mc"}
        for circuit, c in exp22["circuits"].items():
            for name in exp22["pinned_engines"]:
                err = c["engines"][name]["max_yield_error"]
                assert err <= tol, (circuit, name, err)


BENCH_OPTIMIZE_CIRCUITS = {
    "c432", "c880", "c1908", "c2670", "c3540", "c5315", "c6288", "c7552",
}
#: Sources recorded before the record covered the full suite: c432 to c3540.
BENCH_OPTIMIZE_FIVE_CIRCUITS = {"c432", "c880", "c1908", "c2670", "c3540"}
BENCH_OPTIMIZE_FIVE_CIRCUIT_SOURCES = {
    "230391b55cb574b98a728ce706dbaf3bd0349c74",
    "4525f0e0f3150a44872039b517ea75fde5f97ed1",
    "75d7a685bf9d1a98bee1f6767963ac2c4b4c80b4",
    "8a4fccc7f9bb1046199c0341e912123d40630519",
    "989bedc5880ec4298fb3f0e9fc19e74b72579eb2",
    "9a1d6f2ded764b78b555210a65ce964d719bde4a",
    "9b8be23aa116403a02c3373b2b7cba1a8dab511f",
    "9eeb4eebf586b35c933a54d0c56572037f5c5599",
}
BENCH_OPTIMIZE_ROW_KEYS = {
    "circuit",
    "gates",
    "wall_seconds",
    "passes",
    "moves_applied",
    "moves_reverted",
    "mean_leakage_w",
    "p95_leakage_w",
    "timing_yield",
    "span_self_seconds",
    "ssta_runs_total",
    "ssta_reused_total",
    "src_lines",
    "cpu_count",
    "git_sha",
    "recorded_at",
}


#: Rows recorded before the work counters existed keep the key set above.
BENCH_OPTIMIZE_LEGACY_ROWS = 40
#: Work counters every later row records in its ``counters`` object.
BENCH_OPTIMIZE_COUNTERS = {
    "ssta_merge_calls_total",
    "ssta_fold_merges_total",
    "sta_runs_total",
    "opt_moves_evaluated_total",
}
#: Parent sources measured next to the change that added those counters:
#: their rows carry the counters the source had.
BENCH_OPTIMIZE_PRE_COUNTER_SOURCES = {"9eeb4eebf586b35c933a54d0c56572037f5c5599"}
#: Rows from the wave-scheduled SSTA on also count merged rows.
BENCH_OPTIMIZE_WAVE_COUNTERS = {"ssta_merge_rows_total"}
#: Sources recorded before merged rows were counted.
BENCH_OPTIMIZE_PRE_WAVE_SOURCES = BENCH_OPTIMIZE_PRE_COUNTER_SOURCES | {
    "9a1d6f2ded764b78b555210a65ce964d719bde4a",
    "75d7a685bf9d1a98bee1f6767963ac2c4b4c80b4",
}


@pytest.fixture(scope="module")
def bench_optimize():
    return load("BENCH_optimize.json", ROOT)


class TestBenchOptimizeSchema:
    def test_every_row_has_the_full_record(self, bench_optimize):
        rows = bench_optimize["rows"]
        assert len(rows) > BENCH_OPTIMIZE_LEGACY_ROWS
        for position, row in enumerate(rows):
            key = (row.get("git_sha"), row.get("circuit"))
            if position < BENCH_OPTIMIZE_LEGACY_ROWS:
                assert set(row) == BENCH_OPTIMIZE_ROW_KEYS, key
            else:
                assert set(row) == BENCH_OPTIMIZE_ROW_KEYS | {"counters"}, key
            assert row["wall_seconds"] > 0.0, key
            assert row["gates"] > 0 and row["src_lines"] > 0, key
            assert row["cpu_count"] >= 1, key
            assert 0 <= row["ssta_reused_total"] < row["ssta_runs_total"], key
            assert 0.0 <= row["timing_yield"] <= 1.0, key
            assert 0.0 < row["mean_leakage_w"] < row["p95_leakage_w"], key
            assert row["moves_applied"] > 0 and row["moves_reverted"] >= 0, key

    def test_later_rows_record_the_work_counters(self, bench_optimize):
        for row in bench_optimize["rows"][BENCH_OPTIMIZE_LEGACY_ROWS:]:
            key = (row["git_sha"], row["circuit"])
            counters = row["counters"]
            names = {k.split("{")[0] for k in counters}
            if row["git_sha"] not in BENCH_OPTIMIZE_PRE_COUNTER_SOURCES:
                assert BENCH_OPTIMIZE_COUNTERS <= names, key
            if row["git_sha"] not in BENCH_OPTIMIZE_PRE_WAVE_SOURCES:
                assert BENCH_OPTIMIZE_WAVE_COUNTERS <= names, key
            assert all(isinstance(v, int) and v >= 0 for v in counters.values()), key
            assert counters["ssta_runs_total"] == row["ssta_runs_total"], key
            assert counters["ssta_reused_total"] == row["ssta_reused_total"], key

    def test_spans_account_for_the_flow(self, bench_optimize):
        for row in bench_optimize["rows"]:
            spans = row["span_self_seconds"]
            key = (row["git_sha"], row["circuit"])
            assert {"opt.flow", "ssta.run", "ssta.propagate", "opt.validate"} <= set(spans), key
            assert all(seconds >= -1e-9 for seconds in spans.values()), key

    def test_every_source_version_covers_every_circuit(self, bench_optimize):
        circuits = defaultdict(set)
        for row in bench_optimize["rows"]:
            circuits[row["git_sha"]].add(row["circuit"])
        for sha, names in circuits.items():
            if sha in BENCH_OPTIMIZE_FIVE_CIRCUIT_SOURCES:
                assert names == BENCH_OPTIMIZE_FIVE_CIRCUITS, sha
            else:
                assert names == BENCH_OPTIMIZE_CIRCUITS, sha


BENCH_STARTUP_ENTRIES = {
    "repro --version",
    "repro optimize c432 --flow statistical",
    "repro analyze c432",
    "perfbench optimize set-up",
    "perfbench analyze set-up",
}
BENCH_STARTUP_ROW_KEYS = {
    "entry",
    "argv",
    "runs",
    "median_seconds",
    "min_seconds",
    "max_seconds",
    "peak_rss_mb",
    "modules_loaded",
    "scipy_loaded",
    "scipy_stats_loaded",
    "numpy_random_loaded",
    "git_sha",
    "src_lines",
    "cpu_count",
    "recorded_at",
}

#: Sources recorded before the flows took their normal quantiles from
#: ``scipy.special``: every entry point loaded ``scipy.stats``.
BENCH_STARTUP_PRE_SPLIT_SOURCES = {"66ddc23050bc9678366e36182e43034c5d2c6552"}

#: Sources recorded before rows carried ``scipy_loaded``.
BENCH_STARTUP_NO_SCIPY_FIELD_SOURCES = BENCH_STARTUP_PRE_SPLIT_SOURCES | {
    "3a667d29419a3a0700e84ff0c10ae99c3c79b52f",
    "4b8843f1e1c80124b26b09aca8cb8ac6b6a7da47",
}

#: Sources recorded before the flows took their normal quantiles from
#: ``repro.normal``: every entry point loaded ``scipy.special``.
BENCH_STARTUP_PRE_PORT_SOURCES = BENCH_STARTUP_NO_SCIPY_FIELD_SOURCES | {
    "6e3519898ff0f462c820a800b35cb3ec281ddc90",
}

#: Sources recorded before rows carried ``numpy_random_loaded``.
BENCH_STARTUP_NO_NUMPY_RANDOM_FIELD_SOURCES = BENCH_STARTUP_PRE_PORT_SOURCES | {
    "dbf440daa3d7e6120175fbcc40aef6f744a84dc1",
    "0321efddac4fb8a4a6219dddc67edb5163e16d0b",
}

#: Sources whose clone builder drew from ``numpy.random``.
BENCH_STARTUP_NUMPY_RANDOM_SOURCES = BENCH_STARTUP_NO_NUMPY_RANDOM_FIELD_SOURCES | {
    "818e39e0594795c9e19fc174b138b47161e050fc",
}

#: The entries that build seeded clones and must not load ``numpy.random``.
#: perfbench's ``analyze`` set-up draws its own states from it.
BENCH_STARTUP_CLONE_ENTRIES = {
    "repro optimize c432 --flow statistical",
    "repro analyze c432",
    "perfbench optimize set-up",
}


@pytest.fixture(scope="module")
def bench_startup():
    return load("BENCH_startup.json", ROOT)


class TestBenchStartupSchema:
    def test_every_row_has_the_full_record(self, bench_startup):
        rows = bench_startup["rows"]
        assert rows
        for row in rows:
            key = (row.get("git_sha"), row.get("entry"))
            keys = BENCH_STARTUP_ROW_KEYS
            if row.get("git_sha") in BENCH_STARTUP_NO_SCIPY_FIELD_SOURCES:
                keys = keys - {"scipy_loaded"}
            else:
                assert isinstance(row.get("scipy_loaded"), bool), key
            if row.get("git_sha") in BENCH_STARTUP_NO_NUMPY_RANDOM_FIELD_SOURCES:
                keys = keys - {"numpy_random_loaded"}
            else:
                assert isinstance(row.get("numpy_random_loaded"), bool), key
            assert set(row) == keys, key
            assert row["entry"] in BENCH_STARTUP_ENTRIES, key
            assert row["runs"] >= 5, key
            assert 0.0 < row["min_seconds"] <= row["median_seconds"] <= row["max_seconds"], key
            assert row["peak_rss_mb"] > 0.0 and row["modules_loaded"] > 0, key
            assert isinstance(row["scipy_stats_loaded"], bool), key
            assert row["src_lines"] > 0 and row["cpu_count"] >= 1, key
            # Committed sources only: a dirty tree's sha names no code.
            assert not row["git_sha"].endswith("-dirty"), key

    def test_every_recording_covers_every_entry(self, bench_startup):
        entries = defaultdict(list)
        for row in bench_startup["rows"]:
            entries[row["git_sha"], row["recorded_at"]].append(row["entry"])
        for key, names in entries.items():
            assert sorted(names) == sorted(BENCH_STARTUP_ENTRIES), key

    def test_no_entry_loads_scipy_stats_after_the_split(self, bench_startup):
        for row in bench_startup["rows"]:
            if row["git_sha"] not in BENCH_STARTUP_PRE_SPLIT_SOURCES:
                assert not row["scipy_stats_loaded"], (row["git_sha"], row["entry"])

    def test_no_entry_loads_scipy_after_the_port(self, bench_startup):
        for row in bench_startup["rows"]:
            if row["git_sha"] not in BENCH_STARTUP_PRE_PORT_SOURCES:
                assert row["scipy_loaded"] is False, (row["git_sha"], row["entry"])

    def test_no_clone_entry_loads_numpy_random_after_the_port(self, bench_startup):
        for row in bench_startup["rows"]:
            if (row["git_sha"] not in BENCH_STARTUP_NUMPY_RANDOM_SOURCES
                    and row["entry"] in BENCH_STARTUP_CLONE_ENTRIES):
                assert row["numpy_random_loaded"] is False, (row["git_sha"], row["entry"])
