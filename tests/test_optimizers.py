"""End-to-end optimizer integration tests (the paper's core claims)."""

import pytest

from repro.circuit import build_variation_model, make_benchmark
from repro.core import OptimizerConfig, optimize_deterministic, optimize_statistical
from repro.tech import VthClass, slow_corner
from repro.timing import run_ssta, run_sta


@pytest.fixture(scope="module")
def comparison(lib_module, spec_module):
    """One shared det-vs-stat run on c432 (module-scoped: ~2 s)."""
    circuit = make_benchmark("c432", lib_module)
    varmodel = build_variation_model(circuit, spec_module)
    config = OptimizerConfig()
    det = optimize_deterministic(circuit, spec_module, varmodel, config=config)
    det_assignment = circuit.assignment()
    stat = optimize_statistical(
        circuit, spec_module, varmodel, target_delay=det.target_delay, config=config
    )
    return {
        "circuit": circuit,
        "varmodel": varmodel,
        "config": config,
        "det": det,
        "det_assignment": det_assignment,
        "stat": stat,
    }


@pytest.fixture(scope="module")
def lib_module():
    from repro.tech import Library, get_technology

    return Library(get_technology("ptm100"))


@pytest.fixture(scope="module")
def spec_module(lib_module):
    from repro.variation import default_variation

    return default_variation(lib_module.tech.lnom)


class TestDeterministicFlow:
    def test_reduces_leakage(self, comparison):
        det = comparison["det"]
        assert det.after.mean_leakage < 0.5 * det.before.mean_leakage
        assert det.leakage_reduction > 0.5

    def test_meets_corner_constraint(self, comparison):
        det = comparison["det"]
        circuit = comparison["circuit"]
        circuit.apply_assignment(comparison["det_assignment"])
        corner = slow_corner(
            comparison["varmodel"].spec, comparison["config"].corner_sigma
        )
        sta = run_sta(circuit, corner=corner)
        assert sta.circuit_delay <= det.target_delay * (1 + 1e-9)

    def test_corner_solution_overdelivers_yield(self, comparison):
        # The corner's pessimism shows up as ~100% measured yield.
        det = comparison["det"]
        assert det.after.timing_yield > 0.999

    def test_moves_and_passes_recorded(self, comparison):
        det = comparison["det"]
        assert det.moves_applied > 0
        assert len(det.passes) > 0
        assert det.runtime_seconds > 0

    def test_assignments_snapshot_states(self, comparison):
        det = comparison["det"]
        assert len(det.initial_assignment) == comparison["circuit"].n_gates
        assert det.initial_assignment.vths != det.final_assignment.vths


class TestStatisticalFlow:
    def test_meets_yield_constraint(self, comparison):
        stat = comparison["stat"]
        config = comparison["config"]
        assert stat.after.timing_yield >= config.yield_target - 1e-6

    def test_yield_verified_by_fresh_ssta(self, comparison):
        circuit = comparison["circuit"]
        stat = comparison["stat"]
        circuit.apply_assignment(stat.final_assignment)
        ssta = run_ssta(circuit, comparison["varmodel"])
        assert ssta.timing_yield(stat.target_delay) >= 0.949

    def test_beats_deterministic_on_every_statistic(self, comparison):
        det, stat = comparison["det"], comparison["stat"]
        assert stat.after.mean_leakage < det.after.mean_leakage
        assert stat.after.p95_leakage < det.after.p95_leakage
        assert stat.after.hc_leakage < det.after.hc_leakage

    def test_savings_in_expected_band(self, comparison):
        # Same-Tmax protocol: the statistical flow should save a
        # substantial extra fraction (paper band and above, given the
        # 3-sigma corner baseline).
        det, stat = comparison["det"], comparison["stat"]
        extra = 1.0 - stat.after.mean_leakage / det.after.mean_leakage
        assert 0.10 < extra < 0.95

    def test_uses_more_high_vth(self, comparison):
        det, stat = comparison["det"], comparison["stat"]
        assert stat.after.high_vth_fraction >= det.after.high_vth_fraction


class TestConfigurationVariants:
    def test_vth_only_ablation(self, lib_module, spec_module):
        circuit = make_benchmark("c17", lib_module)
        varmodel = build_variation_model(circuit, spec_module)
        config = OptimizerConfig(enable_sizing=False)
        result = optimize_statistical(circuit, spec_module, varmodel, config=config)
        # Only vth changed; sizes still from the initial sizing pass.
        assert result.after.mean_leakage <= result.before.mean_leakage

    def test_tighter_yield_costs_leakage(self, lib_module, spec_module):
        circuit = make_benchmark("c432", lib_module)
        varmodel = build_variation_model(circuit, spec_module)
        relaxed = optimize_statistical(
            circuit, spec_module, varmodel,
            config=OptimizerConfig(yield_target=0.85),
        )
        tmax = relaxed.target_delay
        circuit2 = make_benchmark("c432", lib_module)
        varmodel2 = build_variation_model(circuit2, spec_module)
        strict = optimize_statistical(
            circuit2, spec_module, varmodel2, target_delay=tmax,
            config=OptimizerConfig(yield_target=0.99),
        )
        assert strict.after.mean_leakage >= relaxed.after.mean_leakage
        assert strict.after.timing_yield >= 0.99 - 1e-6

    def test_explicit_target_respected(self, lib_module, spec_module):
        circuit = make_benchmark("c17", lib_module)
        varmodel = build_variation_model(circuit, spec_module)
        det = optimize_deterministic(
            circuit, spec_module, varmodel, target_delay=1e-9
        )
        assert det.target_delay == 1e-9

    def test_summary_readable(self, comparison):
        text = comparison["stat"].summary()
        assert "statistical" in text
        assert "uW" in text


class TestYieldQuantile:
    def test_z_score_is_computed_once_per_strategy(self, c432, spec, monkeypatch):
        from scipy import stats

        import repro.core.statistical
        import repro.normal
        from repro.core.statistical import StatisticalStrategy
        from repro.core import metric_models
        from repro.timing import TimingView

        config = OptimizerConfig()
        view = TimingView(c432)
        models = metric_models(c432, build_variation_model(c432, spec))
        strategy = StatisticalStrategy(
            view, models.varmodel,
            1.2 * run_sta(view).circuit_delay, config,
            models.leakage, models.lognormal_sum,
        )
        assert strategy._z == float(stats.norm.ppf(config.yield_target))

        def no_ppf(*args, **kwargs):
            raise AssertionError("quantile evaluated per pass")

        # The strategy calls the port's ``ndtri``; the other two catch a
        # quantile taken another way.
        monkeypatch.setattr(repro.core.statistical, "ndtri", no_ppf)
        monkeypatch.setattr(repro.normal, "ndtri", no_ppf)
        monkeypatch.setattr(stats.norm, "ppf", no_ppf)
        for _ in range(2):
            state = strategy.analyze()
            assert state.sta.target_delay == max(
                strategy.target_delay - strategy._z * state.ssta.circuit_delay.sigma,
                0.5 * state.ssta.circuit_delay.mean,
            )


class TestOneLeakageModelPerRun:
    """Each flow builds one ``GateLeakage`` and one prepared lognormal sum
    and hands them to its objective and both metric snapshots."""

    @pytest.mark.parametrize("flow", ["statistical", "deterministic", "annealing"])
    def test_one_gate_leakage_and_one_prepared_sum(self, lib, spec, flow, monkeypatch):
        from repro.core.annealing import AnnealConfig, optimize_annealing
        from repro.power.leakage import GateLeakage
        from repro.variation.lognormal import LognormalSum

        built = {"GateLeakage": 0, "LognormalSum": 0}
        for cls in (GateLeakage, LognormalSum):
            original = cls.__init__

            def counting(self, *args, _original=original, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        circuit = make_benchmark("c432", lib)
        varmodel = build_variation_model(circuit, spec)
        if flow == "statistical":
            optimize_statistical(circuit, spec, varmodel)
        elif flow == "deterministic":
            optimize_deterministic(circuit, spec, varmodel)
        else:
            optimize_annealing(circuit, spec, varmodel, anneal=AnnealConfig(steps=50))
        assert built == {"GateLeakage": 1, "LognormalSum": 1}
