"""Metric snapshots and optimization-result objects."""

import pytest

from repro.core import OptimizerConfig, metric_models, snapshot_metrics
from repro.core.result import MetricsSnapshot, OptimizationResult, PassRecord
from repro.power import analyze_leakage, signal_probabilities
from repro.tech import VthClass, slow_corner
from repro.timing import TimingView, run_sta, run_ssta


@pytest.fixture
def snapshot(c432, varmodel_c432, spec):
    view = TimingView(c432)
    config = OptimizerConfig()
    corner = slow_corner(spec, config.corner_sigma)
    target = 1.2 * run_sta(view).circuit_delay
    models = metric_models(c432, varmodel_c432)
    return snapshot_metrics(view, models, target, corner, config), view, target


class TestSnapshotMetrics:
    def test_fields_consistent_with_analyses(self, c432, varmodel_c432, snapshot):
        snap, view, target = snapshot
        assert snap.nominal_delay == pytest.approx(run_sta(view).circuit_delay)
        ssta = run_ssta(view, varmodel_c432)
        assert snap.mean_delay == pytest.approx(ssta.circuit_delay.mean)
        assert snap.timing_yield == pytest.approx(ssta.timing_yield(target))
        assert snap.nominal_leakage == pytest.approx(
            analyze_leakage(c432).total_power
        )

    def test_ordering_invariants(self, snapshot):
        snap, _, _ = snapshot
        # Corner is slower than nominal; statistical mean above nominal
        # leakage; p95 above mean; high-confidence point above mean.
        assert snap.corner_delay > snap.nominal_delay
        assert snap.mean_leakage > snap.nominal_leakage
        assert snap.p95_leakage > snap.mean_leakage
        assert snap.hc_leakage > snap.mean_leakage

    def test_composition_fields(self, c432, varmodel_c432, spec):
        c432.set_uniform(vth=VthClass.HIGH, size=2.0)
        view = TimingView(c432)
        config = OptimizerConfig()
        corner = slow_corner(spec, config.corner_sigma)
        snap = snapshot_metrics(
            view, metric_models(c432, varmodel_c432), 1e-8, corner, config
        )
        assert snap.high_vth_fraction == 1.0
        assert snap.total_size == pytest.approx(2.0 * c432.n_gates)


    def test_models_follow_the_given_probabilities(self, c432, varmodel_c432, spec):
        from repro.power import analyze_dynamic_power, switching_activities

        probs = signal_probabilities(c432, {name: 0.2 for name in c432.inputs})
        models = metric_models(c432, varmodel_c432, probs)
        assert models.varmodel is varmodel_c432
        view = TimingView(c432)
        config = OptimizerConfig()
        corner = slow_corner(spec, config.corner_sigma)
        snap = snapshot_metrics(view, models, 1e-8, corner, config)
        assert snap.nominal_leakage == analyze_leakage(c432, probs=probs).total_power
        assert snap.nominal_leakage != analyze_leakage(c432).total_power
        dynamic = analyze_dynamic_power(
            view, activities=switching_activities(c432, probs)
        )
        assert snap.dynamic_power == dynamic.total


class TestOptimizationResult:
    def _make(self, before_leak, after_leak):
        def snap(leak):
            return MetricsSnapshot(
                nominal_delay=1e-9, corner_delay=1.3e-9, mean_delay=1e-9,
                sigma_delay=5e-11, timing_yield=0.95, nominal_leakage=leak * 0.9,
                mean_leakage=leak, p95_leakage=leak * 1.5, hc_leakage=leak * 1.4,
                dynamic_power=1e-4, high_vth_fraction=0.5, total_size=100.0,
            )

        from repro.circuit.netlist import GateAssignment

        assignment = GateAssignment(sizes=(1.0,), vths=(VthClass.LOW,))
        return OptimizationResult(
            optimizer="statistical",
            circuit_name="t",
            target_delay=1.1e-9,
            min_delay=1e-9,
            before=snap(before_leak),
            after=snap(after_leak),
            initial_assignment=assignment,
            final_assignment=assignment,
            passes=(PassRecord(0, 10, 5, 1, after_leak),),
            moves_applied=5,
            runtime_seconds=0.5,
        )

    def test_reduction_properties(self):
        result = self._make(10e-6, 2e-6)
        assert result.leakage_reduction == pytest.approx(0.8)
        assert result.hc_leakage_reduction == pytest.approx(0.8)

    def test_summary_contains_key_figures(self):
        result = self._make(10e-6, 2e-6)
        text = result.summary()
        assert "statistical" in text
        assert "80.0%" in text
        assert "5 moves" in text
