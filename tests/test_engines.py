"""Pluggable statistical-timing engines: registry, backends, distributions."""

import math

import numpy as np
import pytest

from repro.engines import (
    DEFAULT_BINS,
    ENGINE_NAMES,
    ClarkEngine,
    EmpiricalDelay,
    GaussianDelay,
    HistogramDelay,
    HistogramEngine,
    MCEngine,
    get_engine,
    validate_bins,
)
from repro.errors import EngineError
from repro.timing import Canonical, run_monte_carlo_sta, run_ssta
from repro.variation import VariationSpec
from repro.variation.model import VariationModel


# -- registry -----------------------------------------------------------------


class TestRegistry:
    def test_names_cover_all_backends(self):
        assert ENGINE_NAMES == ("clark", "histogram", "mc")

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_get_engine_resolves(self, name):
        engine = get_engine(name)
        assert engine.name == name

    def test_unknown_engine_lists_registry(self):
        with pytest.raises(EngineError, match="clark, histogram, mc"):
            get_engine("spice")

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_unknown_param_rejected(self, name, c17, spec):
        from repro.circuit.placement import build_variation_model

        varmodel = build_variation_model(c17, spec)
        with pytest.raises(EngineError, match="does not accept"):
            get_engine(name).analyze(c17, varmodel, frobnicate=1)


# -- distribution primitives --------------------------------------------------


class TestGaussianDelay:
    def test_delegates_to_canonical(self):
        c = Canonical(1.0, np.array([0.3]), 0.4)
        dist = GaussianDelay(c)
        assert dist.mean == c.mean
        assert dist.sigma == c.sigma
        assert dist.cdf(1.2) == c.cdf(1.2)
        assert dist.quantile(0.9) == c.percentile(0.9)


class TestHistogramDelay:
    def test_moments_match_lattice(self):
        values = np.array([0.0, 1.0, 2.0])
        pmf = np.array([0.25, 0.5, 0.25])
        dist = HistogramDelay(values=values, pmf=pmf)
        assert dist.mean == pytest.approx(1.0)
        assert dist.sigma == pytest.approx(math.sqrt(0.5))

    def test_cdf_piecewise_linear_and_monotone(self):
        dist = HistogramDelay(
            values=np.array([0.0, 1.0]), pmf=np.array([0.5, 0.5])
        )
        # Bin edges at -0.5/0.5/1.5; CDF knots 0, 0.5, 1.
        assert dist.cdf(-1.0) == 0.0
        assert dist.cdf(0.0) == pytest.approx(0.25)
        assert dist.cdf(0.5) == pytest.approx(0.5)
        assert dist.cdf(2.0) == 1.0
        ts = np.linspace(-1.0, 2.0, 31)
        cs = [dist.cdf(t) for t in ts]
        assert all(b >= a for a, b in zip(cs, cs[1:]))

    def test_quantile_inverts_cdf(self):
        dist = HistogramDelay(
            values=np.array([0.0, 1.0, 2.0]),
            pmf=np.array([0.2, 0.5, 0.3]),
        )
        for q in (0.1, 0.5, 0.9):
            assert dist.cdf(dist.quantile(q)) == pytest.approx(q, abs=1e-12)

    def test_quantile_rejects_bounds(self):
        dist = HistogramDelay(
            values=np.array([0.0, 1.0]), pmf=np.array([0.5, 0.5])
        )
        for q in (0.0, 1.0, -0.5):
            with pytest.raises(EngineError):
                dist.quantile(q)

    def test_single_bin_is_exact_step(self):
        # The satellite regression: a degenerate (zero-variance) histogram
        # must answer 0 or 1, never NaN.
        dist = HistogramDelay(values=np.array([2.0]), pmf=np.array([1.0]))
        assert dist.sigma == 0.0
        assert dist.cdf(1.9) == 0.0
        assert dist.cdf(2.0) == 1.0
        assert dist.cdf(2.1) == 1.0
        assert not math.isnan(dist.cdf(2.0))
        assert dist.quantile(0.5) == 2.0

    def test_empty_or_mismatched_rejected(self):
        with pytest.raises(EngineError):
            HistogramDelay(values=np.array([]), pmf=np.array([]))
        with pytest.raises(EngineError):
            HistogramDelay(
                values=np.array([0.0, 1.0]), pmf=np.array([1.0])
            )


class TestEmpiricalDelay:
    def test_from_samples_sorts(self):
        dist = EmpiricalDelay.from_samples(np.array([3.0, 1.0, 2.0]))
        assert list(dist.sorted_samples) == [1.0, 2.0, 3.0]
        assert dist.n_samples == 3

    def test_empty_rejected(self):
        with pytest.raises(EngineError):
            EmpiricalDelay.from_samples(np.array([]))

    def test_cdf_counts_fraction(self):
        dist = EmpiricalDelay.from_samples(np.arange(10, dtype=float))
        assert dist.cdf(4.0) == pytest.approx(0.5)
        assert dist.cdf(-1.0) == 0.0
        assert dist.cdf(100.0) == 1.0

    def test_cdf_ci_brackets_point(self):
        rng = np.random.default_rng(4)
        dist = EmpiricalDelay.from_samples(rng.normal(0.0, 1.0, 2000))
        lo, hi = dist.cdf_ci(0.0)
        assert 0.0 <= lo <= dist.cdf(0.0) <= hi <= 1.0

    def test_quantile_ci_brackets_point(self):
        rng = np.random.default_rng(5)
        dist = EmpiricalDelay.from_samples(rng.normal(0.0, 1.0, 2000))
        lo, hi = dist.quantile_ci(0.95)
        assert lo <= dist.quantile(0.95) <= hi

    def test_quantile_bounds_rejected(self):
        dist = EmpiricalDelay.from_samples(np.array([1.0, 2.0]))
        with pytest.raises(EngineError):
            dist.quantile(1.0)
        with pytest.raises(EngineError):
            dist.quantile_ci(0.0)

    def test_single_sample_sigma_zero(self):
        dist = EmpiricalDelay.from_samples(np.array([1.0]))
        assert dist.sigma == 0.0
        assert dist.cdf(1.0) == 1.0


# -- clark adapter: bitwise identity ------------------------------------------


class TestClarkEngine:
    def test_bitwise_identical_to_run_ssta(self, c432, varmodel_c432):
        ssta = run_ssta(c432, varmodel_c432)
        result = ClarkEngine().analyze(c432, varmodel_c432)
        assert result.max_delay.mean == ssta.circuit_delay.mean
        assert result.max_delay.sigma == ssta.circuit_delay.sigma
        target = 1.05 * ssta.circuit_delay.mean
        assert result.yield_at(target) == ssta.timing_yield(target)

    def test_result_metadata(self, c17, spec):
        from repro.circuit.placement import build_variation_model

        varmodel = build_variation_model(c17, spec)
        result = ClarkEngine().analyze(c17, varmodel)
        assert result.engine == "clark"
        assert result.n_gates == c17.n_gates


# -- histogram engine ---------------------------------------------------------


class TestHistogramEngine:
    def test_bins_validation(self):
        assert validate_bins(64) == 64
        for bad in (1, 0, -3, 65537, 2.5, "64", True):
            with pytest.raises(EngineError):
                validate_bins(bad)

    def test_moments_close_to_clark(self, c432, varmodel_c432):
        clark = ClarkEngine().analyze(c432, varmodel_c432)
        hist = HistogramEngine().analyze(c432, varmodel_c432, bins=256)
        assert hist.max_delay.mean == pytest.approx(
            clark.max_delay.mean, rel=0.01
        )
        assert hist.max_delay.sigma == pytest.approx(
            clark.max_delay.sigma, rel=0.05
        )

    def test_bitwise_deterministic_across_reruns_and_jobs(
        self, c432, varmodel_c432
    ):
        a = HistogramEngine().analyze(c432, varmodel_c432, bins=128)
        b = HistogramEngine().analyze(c432, varmodel_c432, bins=128)
        c = HistogramEngine().analyze(
            c432, varmodel_c432, bins=128, n_jobs=4
        )
        for other in (b, c):
            assert np.array_equal(a.max_delay.values, other.max_delay.values)
            assert np.array_equal(a.max_delay.pmf, other.max_delay.pmf)

    def test_default_bin_count_recorded(self, c17, spec):
        from repro.circuit.placement import build_variation_model

        varmodel = build_variation_model(c17, spec)
        result = HistogramEngine().analyze(c17, varmodel)
        assert result.params["bins"] == DEFAULT_BINS

    def test_zero_variance_circuit_yields_step(self, c17):
        # Frozen process: the delay is deterministic and the histogram
        # must degrade to an exact step (satellite regression).
        frozen = VariationModel(
            VariationSpec(sigma_l_total=0.0, sigma_vth_total=0.0),
            n_gates=c17.n_gates,
        )
        from repro.timing import run_sta

        nominal = run_sta(c17).circuit_delay
        result = HistogramEngine().analyze(c17, frozen, bins=64)
        lo = result.yield_at(0.5 * nominal)
        hi = result.yield_at(2.0 * nominal)
        assert (lo, hi) == (0.0, 1.0)
        assert not math.isnan(lo) and not math.isnan(hi)


# -- mc engine ----------------------------------------------------------------


class TestMCEngine:
    def test_matches_run_monte_carlo_sta_bitwise(self, c432, varmodel_c432):
        mc = run_monte_carlo_sta(
            c432, varmodel_c432, n_samples=500, seed=3, keep_samples=False
        )
        result = MCEngine().analyze(
            c432, varmodel_c432, n_samples=500, seed=3
        )
        assert np.array_equal(
            np.sort(mc.circuit_delays), result.max_delay.sorted_samples
        )
        target = 1.05 * mc.mean
        assert result.yield_at(target) == mc.timing_yield(target)

    def test_jobs_invariant(self, c432, varmodel_c432):
        a = MCEngine().analyze(c432, varmodel_c432, n_samples=400, seed=1)
        b = MCEngine().analyze(
            c432, varmodel_c432, n_samples=400, seed=1, n_jobs=2
        )
        assert np.array_equal(
            a.max_delay.sorted_samples, b.max_delay.sorted_samples
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_samples": 0},
            {"n_samples": 2.5},
            {"n_samples": True},
            {"seed": -1},
            {"n_jobs": -2},
        ],
    )
    def test_param_validation(self, c17, spec, kwargs):
        from repro.circuit.placement import build_variation_model

        varmodel = build_variation_model(c17, spec)
        with pytest.raises(EngineError):
            MCEngine().analyze(c17, varmodel, **kwargs)

    def test_mismatched_model_rejected(self, c17):
        wrong = VariationModel(
            VariationSpec(sigma_l_total=0.0, sigma_vth_total=0.0), n_gates=1
        )
        with pytest.raises(EngineError, match="variation model covers"):
            MCEngine().analyze(c17, wrong, n_samples=16)


# -- cross-backend agreement and result surface -------------------------------


class TestResultSurface:
    def test_yield_rejects_nonpositive_target(self, c17, spec):
        from repro.circuit.placement import build_variation_model

        varmodel = build_variation_model(c17, spec)
        result = ClarkEngine().analyze(c17, varmodel)
        with pytest.raises(EngineError):
            result.yield_at(0.0)

    def test_delay_at_yield_bounds(self, c17, spec):
        from repro.circuit.placement import build_variation_model

        varmodel = build_variation_model(c17, spec)
        result = ClarkEngine().analyze(c17, varmodel)
        with pytest.raises(EngineError):
            result.delay_at_yield(1.0)
        t = result.delay_at_yield(0.9)
        assert result.yield_at(t) == pytest.approx(0.9, abs=1e-9)

    def test_optimizer_config_validates_engine(self):
        from repro.core import OptimizerConfig
        from repro.errors import OptimizationError

        assert OptimizerConfig().timing_engine == "clark"
        assert OptimizerConfig(timing_engine="histogram").timing_engine == (
            "histogram"
        )
        with pytest.raises(OptimizationError, match="timing_engine"):
            OptimizerConfig(timing_engine="spice")

    def test_statistical_strategy_engine_path(self, c432, varmodel_c432):
        from repro.core import OptimizerConfig
        from repro.core.statistical import StatisticalStrategy
        from repro.timing import TimingView, run_ssta

        view = TimingView(c432)
        target = 1.05 * run_ssta(view, varmodel_c432).circuit_delay.mean

        def strategy(engine):
            return StatisticalStrategy(
                view, varmodel_c432, target,
                OptimizerConfig(timing_engine=engine),
                leakage=None, lognormal_sum=None,
            )

        y_clark = strategy("clark").evaluate_yield()
        # The default engine's yield is bitwise the SSTA result's.
        assert y_clark == run_ssta(view, varmodel_c432).timing_yield(target)
        y_hist = strategy("histogram").evaluate_yield()
        assert y_hist == pytest.approx(y_clark, abs=0.03)

    def test_engines_agree_on_yield(self, c432, varmodel_c432):
        # Every backend answers the same question; at a moderate margin
        # they must agree to MC noise + discretization error.
        clark = ClarkEngine().analyze(c432, varmodel_c432)
        target = 1.05 * clark.max_delay.mean
        hist = HistogramEngine().analyze(c432, varmodel_c432, bins=256)
        mc = MCEngine().analyze(c432, varmodel_c432, n_samples=4000, seed=0)
        y_clark = clark.yield_at(target)
        assert hist.yield_at(target) == pytest.approx(y_clark, abs=0.03)
        assert mc.yield_at(target) == pytest.approx(y_clark, abs=0.03)


# -- the optimizer's yield check ------------------------------------------------


class TestOptimizerYieldPath:
    """``evaluate_yield`` is one engine call, or one sampled estimate."""

    @staticmethod
    def strategy(view, varmodel, target, **config):
        from repro.core import OptimizerConfig
        from repro.core.statistical import StatisticalStrategy

        return StatisticalStrategy(
            view, varmodel, target, OptimizerConfig(**config),
            leakage=None, lognormal_sum=None,
        )

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_engine_receives_n_jobs(self, c17, spec, monkeypatch, name):
        # n_jobs covers every sampled evaluation of the flow, the mc
        # engine's dies included; every engine accepts it.
        from repro.circuit.placement import build_variation_model
        from repro.timing import TimingView

        received = []

        class Answer:
            def yield_at(self, target):
                return 0.25

        def analyze(self, circuit_or_view, varmodel, config=None, **params):
            received.append(params)
            return Answer()

        monkeypatch.setattr(type(get_engine(name)), "analyze", analyze)
        varmodel = build_variation_model(c17, spec)
        strategy = self.strategy(
            TimingView(c17), varmodel, 1e-9, timing_engine=name, n_jobs=3
        )
        assert strategy.evaluate_yield() == 0.25
        assert received == [{"n_jobs": 3}]

    def test_default_check_is_one_ssta_and_no_quantile(
        self, c432, varmodel_c432, monkeypatch
    ):
        from repro.telemetry import telemetry_session
        from repro.timing import TimingView

        view = TimingView(c432)
        target = 1.05 * run_ssta(view, varmodel_c432).circuit_delay.mean

        def no_quantile(self, q):
            raise AssertionError("a yield check evaluated a quantile")

        monkeypatch.setattr(Canonical, "percentile", no_quantile)
        with telemetry_session() as tele:
            y = self.strategy(view, varmodel_c432, target).evaluate_yield()
        assert tele.counter("ssta_runs_total").value == 1
        assert tele.counter("opt_yield_evals_total", mode="engine").value == 1
        assert y == run_ssta(view, varmodel_c432).timing_yield(target)

    @pytest.mark.parametrize("name", ["histogram", "mc"])
    def test_sampled_check_rejects_an_unused_engine(self, name):
        from repro.core import OptimizerConfig
        from repro.errors import OptimizationError

        with pytest.raises(OptimizationError, match="unused"):
            OptimizerConfig(timing_engine=name, yield_mc_samples=800)
        assert OptimizerConfig(yield_mc_samples=800).timing_engine == "clark"
        assert OptimizerConfig(timing_engine=name).yield_mc_samples == 0
