"""Monte-Carlo engine: sampled timing as a first-class backend.

Promotes :func:`~repro.timing.mc.run_monte_carlo_sta` from a validation
side path to a peer of the analytic engines: the same ``analyze`` call,
but the answer is an :class:`EmpiricalDelay` whose every quantile and
CDF query can carry its sampling confidence interval (binomial for
yields, order-statistic for quantiles).  The samples are exactly the
per-die circuit delays ``run_monte_carlo_sta`` draws at the same seed
and sample count, for any ``n_jobs``.
"""

from __future__ import annotations

from typing import Optional

from ..circuit.netlist import Circuit
from ..errors import EngineError
from ..telemetry import get_telemetry
from ..timing.graph import TimingConfig, TimingView
from ..timing.mc import run_monte_carlo_sta
from ..variation.model import VariationModel
from .base import EmpiricalDelay, TimingEngine, TimingResult


def _validate_count(name: str, value: object, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise EngineError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise EngineError(f"{name} must be >= {minimum}, got {value}")
    return value


class MCEngine(TimingEngine):
    """Sharded Monte-Carlo timing with CI-carrying empirical answers."""

    name = "mc"
    accepted_params = ("n_samples", "seed", "n_jobs")

    def analyze(
        self,
        circuit_or_view: Circuit | TimingView,
        varmodel: VariationModel,
        config: Optional[TimingConfig] = None,
        **params: object,
    ) -> TimingResult:
        """Sample dies and report the empirical max-delay distribution.

        ``n_samples`` (default 4000) and ``seed`` (default 0) pin the
        die population; ``n_jobs`` shards the draw over workers with the
        usual bitwise ``n_jobs``-invariance (per-shard ``SeedSequence``
        streams, shard-order concatenation).
        """
        self._check_params(params)
        n_samples = _validate_count(
            "n_samples", params.get("n_samples", 4000), 1
        )
        seed = _validate_count("seed", params.get("seed", 0), 0)
        n_jobs = _validate_count("n_jobs", params.get("n_jobs", 1), 0)
        view = self._view_of(circuit_or_view, config)
        if varmodel.n_gates != view.n_gates:
            raise EngineError(
                f"variation model covers {varmodel.n_gates} gates, "
                f"circuit has {view.n_gates}"
            )
        tele = get_telemetry()
        with tele.span(
            "engine.mc.run", gates=view.n_gates, samples=n_samples
        ):
            mc = run_monte_carlo_sta(
                view, varmodel, n_samples=n_samples, seed=seed,
                n_jobs=n_jobs, keep_samples=False,
            )
        return TimingResult(
            engine=self.name,
            max_delay=EmpiricalDelay.from_samples(mc.circuit_delays),
            n_gates=view.n_gates,
            params={"n_samples": n_samples, "seed": seed},
        )
