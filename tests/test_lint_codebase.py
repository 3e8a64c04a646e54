"""The AST codebase pass (RPR4xx) on synthetic source trees."""

import textwrap

import pytest

from repro.errors import LintError
from repro.lint import LintContext, run_lint


def _scan(tmp_path, source, filename="mod.py"):
    (tmp_path / filename).write_text(textwrap.dedent(source))
    return run_lint(LintContext(source_root=tmp_path), passes=("codebase",))


def _codes(report):
    return [f.code for f in report.findings]


def test_rpr401_unseeded_rng(tmp_path):
    report = _scan(tmp_path, """
        import numpy as np
        rng = np.random.default_rng()
    """)
    assert _codes(report) == ["RPR401"]
    assert report.n_errors == 1


def test_rpr401_seeded_rng_is_fine(tmp_path):
    report = _scan(tmp_path, """
        import numpy as np
        rng = np.random.default_rng(1234)
        rng2 = np.random.default_rng(seed=0)
    """)
    assert report.findings == ()


def test_rpr402_float_equality(tmp_path):
    report = _scan(tmp_path, """
        def f(x):
            return x == 0.5 or x != 1.5
    """)
    assert _codes(report).count("RPR402") == 2


def test_rpr402_integer_equality_is_fine(tmp_path):
    report = _scan(tmp_path, """
        def f(n):
            return n == 0
    """)
    assert report.findings == ()


def test_rpr403_raw_unit_literal(tmp_path):
    report = _scan(tmp_path, """
        def f(delay_s, length_nm):
            return delay_s * 1e12, length_nm * 1e-9
    """)
    assert _codes(report).count("RPR403") == 2
    assert any("to_ps" in f.message for f in report.findings)


def test_rpr403_non_unit_float_is_fine(tmp_path):
    report = _scan(tmp_path, """
        def f(x):
            return x * 2.5 / 1e3
    """)
    assert report.findings == ()


def test_rpr403_not_applied_to_units_module(tmp_path):
    report = _scan(tmp_path, """
        def ps(value):
            return value * 1e-12
    """, filename="units.py")
    assert report.findings == ()


def test_rpr404_foreign_exception(tmp_path):
    report = _scan(tmp_path, """
        def f():
            raise ValueError("nope")
    """)
    assert _codes(report) == ["RPR404"]


def test_rpr404_repro_errors_and_reraise_are_fine(tmp_path):
    report = _scan(tmp_path, """
        from repro.errors import CircuitError

        def f():
            raise CircuitError("bad netlist")

        def g():
            raise NotImplementedError

        def h():
            try:
                f()
            except CircuitError:
                raise
    """)
    assert report.findings == ()


def test_rpr404_local_subclass_of_repro_error_is_fine(tmp_path):
    report = _scan(tmp_path, """
        from repro.errors import ReproError

        class LocalError(ReproError):
            pass

        def f():
            raise LocalError("still in the hierarchy")
    """)
    assert report.findings == ()


def test_rpr405_mutable_default(tmp_path):
    report = _scan(tmp_path, """
        def f(items=[], mapping={}, tags=set(), *, extra=[]):
            return items, mapping, tags, extra
    """)
    assert _codes(report).count("RPR405") == 4


def test_rpr405_none_default_is_fine(tmp_path):
    report = _scan(tmp_path, """
        def f(items=None, count=0, name=""):
            return items, count, name
    """)
    assert report.findings == ()


def test_pragma_suppresses_with_justification(tmp_path):
    report = _scan(tmp_path, """
        def f(x):
            if x == 0.0:  # lint: ignore[RPR402] exact zero is a sentinel
                return 0
            return 1
    """)
    (finding,) = report.findings
    assert finding.suppressed
    assert finding.justification == "exact zero is a sentinel"
    assert report.exit_code(strict=True) == 0
    assert report.n_suppressed == 1


def test_pragma_for_other_code_does_not_suppress(tmp_path):
    report = _scan(tmp_path, """
        def f(x):
            if x == 0.0:  # lint: ignore[RPR403] wrong code
                return 0
            return 1
    """)
    (finding,) = report.findings
    assert not finding.suppressed


def test_pragma_with_multiple_codes(tmp_path):
    report = _scan(tmp_path, """
        def f(x):
            return x == 0.5 and x * 1e12  # lint: ignore[RPR402, RPR403] demo
    """)
    assert all(f.suppressed for f in report.findings)
    assert len(report.findings) == 2


def test_location_is_relative_with_line(tmp_path):
    report = _scan(tmp_path, """
        import numpy as np
        rng = np.random.default_rng()
    """)
    (finding,) = report.findings
    assert finding.location.endswith("mod.py:3")


def test_syntax_error_raises_lint_error(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n")
    with pytest.raises(LintError):
        run_lint(LintContext(source_root=tmp_path), passes=("codebase",))


def test_missing_root_raises_lint_error(tmp_path):
    with pytest.raises(LintError):
        run_lint(
            LintContext(source_root=tmp_path / "nope"), passes=("codebase",)
        )


def test_real_source_tree_has_no_active_errors_or_warnings():
    """`repro lint --self` must stay clean (fixed or suppressed)."""
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    report = run_lint(LintContext(source_root=root), passes=("codebase",))
    assert report.exit_code(strict=True) == 0
    # Suppressions must carry a justification, not a bare pragma.
    for finding in report.findings:
        if finding.suppressed:
            assert finding.justification
            assert finding.justification != "suppressed without justification"


def test_real_source_tree_pragmas_name_registered_rules():
    """Every inline pragma under src/repro names a rule that still exists.

    The engine accepts unknown pragma codes silently, so a pragma left
    behind by a retired rule (or a docstring that happens to parse as
    one) would otherwise linger forever.
    """
    from pathlib import Path

    import repro
    from repro.lint import REGISTRY
    from repro.lint.analysis import collect_pragmas

    root = Path(repro.__file__).parent
    registered = set(REGISTRY.codes())
    unknown = []
    for path in sorted(root.rglob("*.py")):
        pragmas = collect_pragmas(path.read_text(encoding="utf-8"))
        for line, (codes, _why) in sorted(pragmas.items()):
            for code in sorted(codes - registered):
                unknown.append(f"{path.relative_to(root.parent)}:{line} {code}")
    assert not unknown, unknown
