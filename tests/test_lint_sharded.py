"""The sharded self-lint runner: bitwise determinism for any --jobs N."""

import textwrap
import warnings
from pathlib import Path

import pytest

from repro.lint import (
    LintContext,
    LintOptions,
    render_json,
    run_lint,
    run_lint_sharded,
)
from repro.lint.sharded import _run_pool, shard_files
from repro.parallel.runner import ParallelExecutionWarning


@pytest.fixture
def pkg(tmp_path):
    """A package dirty enough that every source pass has findings."""
    root = tmp_path / "pkg"
    files = {
        "__init__.py": "",
        "a.py": """
            def save(report):
                with open("report.json", "w") as fh:
                    fh.write(report)
        """,
        "b.py": """
            import numpy as np

            def draw():
                return np.random.default_rng().normal()
        """,
        "c.py": """
            import numpy as np

            from .b import draw

            def render():
                np.random.shuffle([1, 2])
                return draw()
        """,
        "d.py": """
            def delay_ps(delay_ns):
                return delay_ns
        """,
    }
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


class TestShardPlan:
    def test_round_robin_is_worker_count_independent(self, pkg):
        one = shard_files(pkg, 1)
        three = shard_files(pkg, 3)
        assert sorted(f for s in one for f in s) == \
            sorted(f for s in three for f in s)
        # shard i of N is a pure function of the sorted file list
        assert three == shard_files(pkg, 3)

    def test_more_shards_than_files_drops_empties(self, pkg):
        shards = shard_files(pkg, 100)
        assert all(shards)
        assert len(shards) == len(list(pkg.rglob("*.py")))


class TestBitwiseEquality:
    def test_sharded_equals_serial_for_any_job_count(self, pkg):
        options = LintOptions()
        serial = run_lint(LintContext(source_root=pkg))
        for jobs in (1, 2, 5):
            sharded = run_lint_sharded(pkg, options, n_jobs=jobs)
            assert sharded.findings == serial.findings, jobs
            assert sharded.passes == serial.passes
            assert render_json(sharded) == render_json(serial)

    def test_pass_selection_forwarded(self, pkg):
        options = LintOptions()
        sharded = run_lint_sharded(pkg, options, passes=("rng",), n_jobs=2)
        assert sharded.passes == ("rng",)
        assert sharded.findings
        assert all(f.code.startswith("RPR6") for f in sharded.findings)
        serial = run_lint(LintContext(source_root=pkg), passes=("rng",))
        assert sharded.findings == serial.findings

    def test_paths_narrowing_matches_serial(self, pkg):
        options = LintOptions(paths=(str(pkg / "a.py"), str(pkg / "b.py")))
        serial = run_lint(LintContext(source_root=pkg, options=options))
        sharded = run_lint_sharded(pkg, options, n_jobs=2)
        assert sharded.findings == serial.findings
        assert all("pkg/c.py" not in (f.location or "")
                   for f in sharded.findings)


class _Exploding:
    """Module-level so the pool can pickle it into a worker."""

    def __call__(self, shard):
        raise RuntimeError("boom")


class TestFailurePolicy:
    def test_pool_failure_falls_back_to_serial(self, pkg, monkeypatch):
        import repro.lint.sharded as sharded_module

        def broken_pool(task, shards, workers):
            raise OSError("no forks today")

        monkeypatch.setattr(sharded_module, "_run_pool", broken_pool)
        serial = run_lint(LintContext(source_root=pkg))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_lint_sharded(pkg, LintOptions(), n_jobs=4)
        assert report.findings == serial.findings
        assert any(
            isinstance(w.message, ParallelExecutionWarning) for w in caught
        )

    def test_worker_exception_propagates_to_fallback(self):
        with pytest.raises(RuntimeError):
            _run_pool(_Exploding(), [("x",), ("y",)], 2)
