"""Joint (delay, leakage) parametric yield: MC vs analytic."""

import pytest

from repro.analysis import analytic_parametric_yield, mc_parametric_yield
from repro.errors import PowerError, TimingError
from repro.power import analyze_statistical_leakage
from repro.timing import run_ssta


@pytest.fixture(scope="module")
def setup():
    from repro.analysis import prepare

    return prepare("c432")


@pytest.fixture(scope="module")
def operating_point(setup):
    ssta = run_ssta(setup.circuit, setup.varmodel)
    leak = analyze_statistical_leakage(setup.circuit, setup.varmodel)
    return {
        "tmax": ssta.circuit_delay.percentile(0.90),
        "cap": leak.percentile_power(0.90),
    }


class TestMonteCarlo:
    def test_marginals_near_design_points(self, setup, operating_point):
        py = mc_parametric_yield(
            setup.circuit, setup.varmodel,
            operating_point["tmax"], operating_point["cap"],
            n_samples=4000, seed=3,
        )
        assert py.timing_yield == pytest.approx(0.90, abs=0.03)
        assert py.leakage_yield == pytest.approx(0.90, abs=0.03)

    def test_joint_below_independence(self, setup, operating_point):
        # Fast dies are leaky: delay and leakage caps anti-correlate, so
        # the joint yield is *below* the independence product.
        py = mc_parametric_yield(
            setup.circuit, setup.varmodel,
            operating_point["tmax"], operating_point["cap"],
            n_samples=4000, seed=3,
        )
        assert py.correlation < -0.5
        assert py.independence_gap < -0.01

    def test_input_validation(self, setup):
        with pytest.raises(TimingError):
            mc_parametric_yield(setup.circuit, setup.varmodel, 0.0, 1.0)
        with pytest.raises(PowerError):
            mc_parametric_yield(setup.circuit, setup.varmodel, 1e-9, -1.0)


class TestAnalytic:
    def test_matches_monte_carlo(self, setup, operating_point):
        mc = mc_parametric_yield(
            setup.circuit, setup.varmodel,
            operating_point["tmax"], operating_point["cap"],
            n_samples=6000, seed=5,
        )
        analytic = analytic_parametric_yield(
            setup.circuit, setup.varmodel,
            operating_point["tmax"], operating_point["cap"],
        )
        assert analytic.timing_yield == pytest.approx(mc.timing_yield, abs=0.03)
        assert analytic.leakage_yield == pytest.approx(mc.leakage_yield, abs=0.04)
        assert analytic.joint_yield == pytest.approx(mc.joint_yield, abs=0.05)
        assert analytic.correlation == pytest.approx(mc.correlation, abs=0.15)

    def test_loose_caps_give_unity_yield(self, setup, operating_point):
        py = analytic_parametric_yield(
            setup.circuit, setup.varmodel,
            operating_point["tmax"] * 3, operating_point["cap"] * 30,
        )
        assert py.joint_yield > 0.999

    def test_negative_correlation_by_physics(self, setup, operating_point):
        py = analytic_parametric_yield(
            setup.circuit, setup.varmodel,
            operating_point["tmax"], operating_point["cap"],
        )
        assert py.correlation < -0.3


class TestZeroVariance:
    """With no variation both yields are steps at the deterministic values."""

    @pytest.fixture
    def flat(self, c17):
        from repro.circuit import build_variation_model
        from repro.variation import VariationSpec

        spec = VariationSpec(sigma_l_total=0.0, sigma_vth_total=0.0)
        varmodel = build_variation_model(c17, spec)
        delay = run_ssta(c17, varmodel).circuit_delay
        leak = analyze_statistical_leakage(c17, varmodel)
        return c17, varmodel, delay, leak

    def test_timing_half(self, flat):
        circuit, varmodel, delay, leak = flat
        assert delay.sigma == 0.0
        delay, power = delay.mean, leak.mean_power
        tight = analytic_parametric_yield(circuit, varmodel, 0.9 * delay, 2.0 * power)
        assert tight.timing_yield == 0.0
        assert tight.timing_yield == run_ssta(circuit, varmodel).timing_yield(0.9 * delay)
        assert tight.joint_yield == pytest.approx(0.0, abs=1e-12)
        loose = analytic_parametric_yield(circuit, varmodel, 1.1 * delay, 2.0 * power)
        assert loose.timing_yield == 1.0

    def test_leakage_half(self, flat):
        circuit, varmodel, delay, leak = flat
        assert leak.std_current == 0.0
        delay, power = delay.mean, leak.mean_power
        tight = analytic_parametric_yield(circuit, varmodel, 2.0 * delay, 0.5 * power)
        assert tight.leakage_yield == 0.0
        assert tight.joint_yield == pytest.approx(0.0, abs=1e-12)
        loose = analytic_parametric_yield(circuit, varmodel, 2.0 * delay, 1.1 * power)
        assert loose.leakage_yield == 1.0
        assert loose.joint_yield == pytest.approx(1.0, abs=1e-12)
