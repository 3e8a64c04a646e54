"""Command-line interface.

``tests/goldens/cli_mc.json`` freezes the stdout of ``repro mc c17
--samples 256`` for every engine under the ``plain`` and ``isle``
estimators, compared byte for byte; a missing file fails.  After a
deliberate change to that output, rewrite the file with::

    PYTHONPATH=src python tests/test_cli.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.engines import ENGINE_NAMES

CLI_MC_GOLDEN = Path(__file__).resolve().parent / "goldens" / "cli_mc.json"
CLI_MC_RUNS = tuple(
    ("mc", "c17", "--samples", "256", "--engine", engine,
     "--estimator", estimator)
    for engine in ENGINE_NAMES
    for estimator in ("plain", "isle")
)


def cli_mc_outputs():
    """Stdout of every golden ``repro mc`` run, keyed by its arguments."""
    outputs = {}
    for argv in CLI_MC_RUNS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0, argv
        outputs[" ".join(argv)] = out.getvalue()
    return outputs


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "c432" in out
    assert "ptm100" in out


def test_info_benchmark(capsys):
    assert main(["info", "c17"]) == 0
    out = capsys.readouterr().out
    assert "gates" in out
    assert "NAND2" in out


def test_info_bench_file(tmp_path, capsys):
    from repro.circuit import C17_BENCH

    path = tmp_path / "mini.bench"
    path.write_text(C17_BENCH)
    assert main(["info", str(path)]) == 0
    assert "mini" in capsys.readouterr().out


def test_info_missing_file_fails(capsys):
    assert main(["info", "does/not/exist.bench"]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_command(capsys):
    assert main(["analyze", "c17"]) == 0
    out = capsys.readouterr().out
    assert "SSTA mean delay" in out
    assert "mean leakage" in out


def test_analyze_other_tech(capsys):
    assert main(["analyze", "c17", "--tech", "ptm70"]) == 0
    assert "ptm70" in capsys.readouterr().out


def test_optimize_statistical_only(capsys):
    assert main(["optimize", "c17", "--flow", "statistical"]) == 0
    out = capsys.readouterr().out
    assert "statistical" in out
    assert "extra statistical savings" not in out  # single flow: no delta


def test_optimize_both_flows(capsys):
    assert main(
        ["optimize", "c17", "--flow", "both", "--margin", "1.2",
         "--yield", "0.9"]
    ) == 0
    out = capsys.readouterr().out
    assert "deterministic" in out
    assert "extra statistical savings" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_unknown_benchmark_fails(capsys):
    assert main(["info", "c99999"]) == 1
    assert "error:" in capsys.readouterr().err


def test_export_verilog(tmp_path, capsys):
    out = tmp_path / "c17.v"
    assert main(["export", "c17", str(out)]) == 0
    assert out.exists()
    assert "module" in out.read_text()


def test_export_bench_round_trips(tmp_path, capsys):
    out = tmp_path / "c17.bench"
    assert main(["export", "c17", str(out)]) == 0
    assert main(["info", str(out)]) == 0
    assert "gates" in capsys.readouterr().out


def test_export_library(tmp_path, capsys):
    out = tmp_path / "cells.lib"
    assert main(["export", str(out)]) == 0
    assert out.read_text().startswith("library (")


def test_export_unknown_format_fails(tmp_path, capsys):
    assert main(["export", "c17", str(tmp_path / "c17.spice")]) == 1
    assert "unknown export format" in capsys.readouterr().err


def test_export_library_requires_lib_suffix(tmp_path, capsys):
    assert main(["export", str(tmp_path / "cells.v")]) == 1
    assert "requires a .lib" in capsys.readouterr().err


# -- engine selection ---------------------------------------------------------


def test_info_provenance_lists_engines_and_estimators(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "engines: clark, histogram, mc" in out
    assert "estimators: plain" in out


def test_mc_default_engine_keeps_analytic_column(capsys):
    assert main(["mc", "c17", "--samples", "64"]) == 0
    out = capsys.readouterr().out
    assert "analytic" in out
    assert "engine" not in out.splitlines()[0]


def test_mc_histogram_engine(capsys):
    assert main(
        ["mc", "c17", "--samples", "64", "--engine", "histogram",
         "--bins", "64"]
    ) == 0
    out = capsys.readouterr().out
    assert "engine histogram" in out
    assert "histogram" in out.splitlines()[1]  # reference column header


def test_mc_mc_engine(capsys):
    assert main(["mc", "c17", "--samples", "64", "--engine", "mc"]) == 0
    assert "engine mc" in capsys.readouterr().out


def test_mc_bins_requires_histogram_engine(capsys):
    assert main(
        ["mc", "c17", "--samples", "64", "--engine", "mc", "--bins", "32"]
    ) == 1
    assert "--bins only applies" in capsys.readouterr().err
    assert main(["mc", "c17", "--samples", "64", "--bins", "32"]) == 1
    assert "--bins only applies" in capsys.readouterr().err


def test_mc_invalid_bins_rejected(capsys):
    assert main(
        ["mc", "c17", "--samples", "64", "--engine", "histogram",
         "--bins", "1"]
    ) == 1
    assert "bins must be in" in capsys.readouterr().err


def test_mc_output_matches_golden():
    if not CLI_MC_GOLDEN.exists():
        pytest.fail(f"{CLI_MC_GOLDEN.name} is missing; regenerate it (see module docstring)")
    golden = json.loads(CLI_MC_GOLDEN.read_text(encoding="utf-8"))
    actual = cli_mc_outputs()
    assert sorted(actual) == sorted(golden)
    for run, out in actual.items():
        assert out == golden[run], f"`repro {run}` output drifted"


def test_mc_unknown_engine_rejected_by_parser():
    import pytest

    with pytest.raises(SystemExit):
        main(["mc", "c17", "--engine", "spice"])


def test_optimize_accepts_engine_flag(capsys):
    assert main(
        ["optimize", "c17", "--flow", "statistical", "--engine",
         "histogram"]
    ) == 0
    assert "statistical" in capsys.readouterr().out


def test_optimize_rejects_engine_with_mc_yield(capsys):
    # A sampled yield check replaces the engine; naming another engine
    # with it is an error, not a silently ignored flag.
    assert main(
        ["optimize", "c17", "--engine", "histogram", "--mc-yield", "64"]
    ) == 1
    assert "timing_engine 'histogram' is unused" in capsys.readouterr().err


# -- lint subcommand ----------------------------------------------------------


def test_lint_needs_a_subject(capsys):
    assert main(["lint"]) == 1
    assert "circuit, --self, or both" in capsys.readouterr().err


def test_lint_benchmark_text(capsys):
    assert main(["lint", "c17"]) == 0
    out = capsys.readouterr().out
    assert "lint:" in out
    assert "passes: circuit, technology, config" in out


def test_lint_all_benchmarks_zero_errors(capsys):
    from repro.circuit import benchmark_names

    for name in benchmark_names():
        assert main(["lint", name]) == 0, name
        assert "0 error(s)" in capsys.readouterr().out


def test_lint_json_round_trips(capsys):
    import json

    from repro.lint import JSON_SCHEMA_VERSION

    assert main(["lint", "c432", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == JSON_SCHEMA_VERSION == 2
    assert payload["passes"] == ["circuit", "technology", "config"]
    assert payload["summary"]["errors"] == 0
    for finding in payload["findings"]:
        assert finding["code"].startswith("RPR")
        assert finding["severity"] in ("info", "warning", "error")


def test_lint_self_exits_clean(capsys):
    baseline = str(Path(__file__).parent.parent / "lint-baseline.json")
    assert main(["lint", "--self", "--strict", "--baseline", baseline]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s)" in out


def test_lint_detects_bad_circuit(tmp_path, capsys):
    bench = tmp_path / "bad.bench"
    bench.write_text(
        "INPUT(a)\nINPUT(unused)\nOUTPUT(y)\ny = NAND(a, a)\n"
    )
    assert main(["lint", str(bench)]) == 0  # warnings alone pass
    out = capsys.readouterr().out
    assert "RPR101" in out
    assert "RPR103" in out
    assert main(["lint", str(bench), "--strict"]) == 1


def test_lint_ignore_flag(tmp_path, capsys):
    bench = tmp_path / "bad.bench"
    bench.write_text(
        "INPUT(a)\nINPUT(unused)\nOUTPUT(y)\ny = NAND(a, a)\n"
    )
    # RPR303 also fires here (min_chunk >= the 1-gate circuit), so both
    # codes must be ignored for a strict pass.
    assert main(
        ["lint", str(bench), "--strict",
         "--ignore", "RPR101", "--ignore", "RPR303"]
    ) == 0
    assert "RPR101" not in capsys.readouterr().out


def test_lint_unknown_ignore_code_fails(capsys):
    assert main(["lint", "c17", "--ignore", "RPR999"]) == 1
    assert "unknown rule" in capsys.readouterr().err


def test_lint_infeasible_target_is_an_error(capsys):
    assert main(["lint", "c17", "--target-delay", "1.0"]) == 1
    assert "RPR307" in capsys.readouterr().out


def test_info_includes_lint_summary(capsys):
    assert main(["info", "c17"]) == 0
    out = capsys.readouterr().out
    assert "finding(s)" in out and "repro lint c17" in out


def test_info_clean_circuit_says_clean(tmp_path, capsys):
    bench = tmp_path / "pair.bench"
    bench.write_text("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n")
    assert main(["info", str(bench)]) == 0
    assert "lint: clean" in capsys.readouterr().out


if __name__ == "__main__":
    from repro.atomicio import atomic_write_json

    atomic_write_json(CLI_MC_GOLDEN, cli_mc_outputs())
    print(f"wrote {CLI_MC_GOLDEN}")
