"""Statistical-correctness harness for the variance-reduced estimators.

Every estimator is held to the same four contracts, checked against the
closed-form :class:`~tests.conftest.EstimatorOracle`:

* **Accuracy** — the estimate lands within a few reported standard
  errors of the exact Phi yield (the toy kernel is linear in Gaussians,
  so truth is analytic, not itself sampled);
* **Variance reduction** — at a matched sample count and committed
  seed, every smart estimator reports a smaller standard error than
  plain MC, and the error it reports is honest (the CI contains truth);
* **Coverage** — over 200 fixed-seed replicates, the nominal-95% CI
  covers truth at least the binomial-expected fraction of the time
  (0.95 minus three binomial sigmas, with one-replicate slack for
  platform float drift);
* **Bitwise determinism** — identical estimates for any ``n_jobs``,
  across reruns, and through the real timing driver on a real circuit;
  changing the seed changes the answer.
"""

import os

import pytest

from repro.errors import EstimatorError
from repro.mcstat import (
    ESTIMATOR_NAMES,
    EstimatorContext,
    IsleEstimator,
    get_estimator,
)
from repro.timing import estimate_timing_yield, run_monte_carlo_sta

requires_multicore = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2 and not os.environ.get("REPRO_FORCE_PARALLEL_TESTS"),
    reason="single-CPU runner; set REPRO_FORCE_PARALLEL_TESTS=1 to force",
)

ALL = list(ESTIMATOR_NAMES)
SMART = [n for n in ALL if n != "plain"]
SEED = 42
SAMPLES = 4096

# Coverage floor: binomial-expected 0.95 - 3 sigma over 200 replicates
# (~0.904), minus one replicate (0.005) of slack for float drift.
COVERAGE_REPLICATES = 200
COVERAGE_FLOOR = 0.895


class TestClosedFormAccuracy:
    @pytest.mark.parametrize("name", ALL)
    @pytest.mark.parametrize("eta", [0.95, 0.99])
    def test_estimate_matches_exact_yield(self, oracle, name, eta):
        target = oracle.target_at(eta)
        est = oracle.run(name, target, SAMPLES, seed=SEED)
        tolerance = 5.0 * max(est.std_error, 1.0 / SAMPLES)
        assert abs(est.timing_yield - oracle.true_yield(target)) <= tolerance
        assert est.n_samples == SAMPLES
        assert est.estimator == name
        assert est.target_delay == target

    @pytest.mark.parametrize("name", ALL)
    def test_estimate_shape_is_sane(self, oracle, name):
        target = oracle.target_at(0.95)
        est = oracle.run(name, target, SAMPLES, seed=SEED)
        assert 0.0 <= est.timing_yield <= 1.0
        assert est.std_error >= 0.0
        assert est.n_effective > 0.0
        lo, hi = est.confidence_interval()
        assert 0.0 <= lo <= est.timing_yield <= hi <= 1.0


class TestVarianceReduction:
    @pytest.mark.parametrize("name", SMART)
    @pytest.mark.parametrize("eta", [0.95, 0.99])
    def test_stderr_beats_plain_at_matched_n(self, oracle, name, eta):
        target = oracle.target_at(eta)
        plain = oracle.run("plain", target, SAMPLES, seed=SEED)
        smart = oracle.run(name, target, SAMPLES, seed=SEED)
        # Committed-seed check with slack: the smart estimator must not
        # report a *larger* error than the binomial baseline.
        assert smart.std_error <= plain.std_error * 1.05
        assert smart.n_effective >= plain.n_effective * 0.95

    def test_plain_n_effective_is_the_sample_count(self, oracle):
        est = oracle.run("plain", oracle.target_at(0.95), SAMPLES, seed=SEED)
        assert est.n_effective == float(SAMPLES)


class TestCoverage:
    @pytest.mark.parametrize("name", ALL)
    @pytest.mark.parametrize("eta", [0.95, 0.99])
    def test_nominal_95_ci_covers_truth(self, oracle, name, eta):
        target = oracle.target_at(eta)
        truth = oracle.true_yield(target)
        covered = 0
        for rep in range(COVERAGE_REPLICATES):
            est = oracle.run(name, target, 2048, seed=1000 + rep)
            lo, hi = est.confidence_interval(z=1.96)
            covered += lo <= truth <= hi
        assert covered / COVERAGE_REPLICATES >= COVERAGE_FLOOR


class TestDeterminism:
    @requires_multicore
    @pytest.mark.parametrize("name", ALL)
    def test_bitwise_identical_across_jobs(self, oracle, name):
        target = oracle.target_at(0.95)
        # shard_size forces a multi-shard plan so n_jobs > 1 actually
        # splits the work; YieldEstimate is all scalars, so dataclass
        # equality is bitwise equality.
        runs = [
            oracle.run(name, target, SAMPLES, seed=SEED, n_jobs=jobs,
                       shard_size=256)
            for jobs in (1, 2, 4)
        ]
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("name", ALL)
    def test_rerun_invariance(self, oracle, name):
        target = oracle.target_at(0.95)
        first = oracle.run(name, target, SAMPLES, seed=SEED)
        second = oracle.run(name, target, SAMPLES, seed=SEED)
        assert first == second

    @pytest.mark.parametrize("name", ALL)
    def test_seed_changes_the_answer(self, oracle, name):
        target = oracle.target_at(0.95)
        a = oracle.run(name, target, SAMPLES, seed=SEED)
        b = oracle.run(name, target, SAMPLES, seed=SEED + 1)
        assert a.timing_yield != b.timing_yield


class TestTimingDriver:
    """The real-circuit driver honors the same contracts as the oracle."""

    def test_plain_driver_matches_historical_yield(self, c432, varmodel_c432):
        from repro.timing import run_ssta

        # The plain estimate counts exactly the dies a plain MC STA run
        # draws at the same seed: the CLI and the campaign mc task build
        # their plain estimate from those dies instead of re-sampling.
        target = run_ssta(c432, varmodel_c432).circuit_delay.percentile(0.95)
        mc = run_monte_carlo_sta(
            c432, varmodel_c432, n_samples=2048, seed=SEED, keep_samples=False
        )
        est = estimate_timing_yield(
            c432, varmodel_c432, target, n_samples=2048, seed=SEED,
            estimator="plain",
        )
        assert est.timing_yield == mc.timing_yield(target)
        assert est.n_samples == mc.circuit_delays.size

    @requires_multicore
    @pytest.mark.parametrize("name", ALL)
    def test_driver_bitwise_identical_across_jobs(self, c17, lib, spec, name):
        from repro.circuit.placement import build_variation_model
        from repro.timing import run_ssta

        varmodel = build_variation_model(c17, spec)
        target = run_ssta(c17, varmodel).circuit_delay.percentile(0.9)
        runs = [
            estimate_timing_yield(
                c17, varmodel, target, n_samples=1024, seed=SEED,
                n_jobs=jobs, estimator=name, shard_size=128,
            )
            for jobs in (1, 2, 4)
        ]
        assert runs[0] == runs[1] == runs[2]


class TestEstimatorErrors:
    def test_unknown_estimator_name(self):
        with pytest.raises(EstimatorError, match="unknown estimator"):
            get_estimator("antithetic")

    def test_finalize_rejects_zero_states(self, oracle):
        est = get_estimator("plain")
        ctx = EstimatorContext(
            varmodel=oracle.varmodel, kernel=oracle.kernel,
            target_delay=1.0, n_samples=0,
        )
        with pytest.raises(EstimatorError, match="zero shard states"):
            est.finalize([], ctx)

    def test_isle_rejects_degenerate_mixture(self):
        with pytest.raises(EstimatorError, match="mixture weight"):
            IsleEstimator(lam=1.0)
        with pytest.raises(EstimatorError, match="mixture weight"):
            IsleEstimator(lam=0.0)

    def test_moments_hungry_estimator_without_moments(self, oracle):
        ctx = EstimatorContext(
            varmodel=oracle.varmodel, kernel=oracle.kernel,
            target_delay=1.0, n_samples=64,
        )
        for name in ("isle", "cv"):
            with pytest.raises(EstimatorError, match="moments"):
                get_estimator(name).make_shard_task(ctx)
