"""Analytic statistical leakage (the paper's objective function).

Log-leakage of every gate is affine in the Gaussian process deviations
(see :func:`repro.tech.device.log_leakage_sensitivities`), so per-gate
leakage is lognormal and the chip total is a **sum of correlated
lognormals** — correlated because gates share the inter-die and spatial
global factors of the :class:`~repro.variation.model.VariationModel`.

:func:`analyze_statistical_leakage` computes the exact first two moments
of that sum (Wilkinson matching for percentiles) — this is the quantity
the statistical optimizer minimizes, typically at its ``mu + k sigma``
high-confidence point.  The headline physics: the *mean* exceeds the
nominal by ``exp(sigma_g^2/2)`` per gate, and the 95th percentile far
exceeds it — deterministic flows literally optimize the wrong number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import PowerError
from ..telemetry import get_telemetry
from ..variation.lognormal import LognormalSum, LognormalSummary
from ..variation.model import VariationModel
from .leakage import gate_leakage_currents

#: k for the default high-confidence point: mean + 1.645 sigma (~95th pct
#: for a near-Gaussian; the matched-lognormal percentile is also exposed).
DEFAULT_CONFIDENCE_K: float = 1.645


@dataclass(frozen=True)
class StatisticalLeakage:
    """Distribution summary of total leakage current and power.

    All current statistics are in amps; multiply by ``vdd`` (provided) for
    watts via the ``*_power`` helpers.
    """

    summary: LognormalSummary
    vdd: float
    nominal_current: float

    @property
    def mean_current(self) -> float:
        """Exact mean of the total leakage current [A]."""
        return self.summary.mean

    @property
    def std_current(self) -> float:
        """Exact standard deviation of total leakage current [A]."""
        return self.summary.std

    @property
    def mean_power(self) -> float:
        """Mean leakage power [W]."""
        return self.summary.mean * self.vdd

    @property
    def nominal_power(self) -> float:
        """Leakage power with all deviations at zero [W]."""
        return self.nominal_current * self.vdd

    def percentile_power(self, q: float) -> float:
        """Wilkinson-matched percentile of leakage power [W]."""
        return self.summary.percentile(q) * self.vdd

    def high_confidence_power(self, k: float = DEFAULT_CONFIDENCE_K) -> float:
        """``mean + k sigma`` leakage power [W] — the optimizer objective."""
        return self.summary.mean_plus_k_sigma(k) * self.vdd

    @property
    def mean_inflation(self) -> float:
        """Mean / nominal ratio — the variation-induced leakage penalty."""
        return self.summary.mean / self.nominal_current


def leakage_loadings(circuit: Circuit, varmodel: VariationModel) -> np.ndarray:
    """Every gate's log-leakage loadings on the global factors,
    ``s_l * L + s_v * V`` (dense order)."""
    s_l, s_v = circuit.library.log_leakage_sensitivities
    return s_l * varmodel.l_loadings + s_v * varmodel.vth_loadings


def leakage_lognormal_sum(circuit: Circuit, varmodel: VariationModel) -> LognormalSum:
    """The loading-only half of the leakage moments, prepared once.

    The loadings depend on the variation model and the technology alone,
    never on the implementation state, so a flow builds one per run and
    passes it to every :func:`analyze_statistical_leakage` call.
    """
    return LognormalSum(leakage_loadings(circuit, varmodel))


def _log_means_and_indep(
    circuit: Circuit,
    varmodel: VariationModel,
    probs: Optional[Mapping[str, float]],
    relative_area: np.ndarray | float | None,
    nominal_currents: Optional[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """The state-dependent lognormal-sum ingredients: ``(log_means,
    indep_sigmas)``."""
    circuit.freeze()
    if varmodel.n_gates != circuit.n_gates:
        raise PowerError(
            f"variation model covers {varmodel.n_gates} gates, "
            f"circuit has {circuit.n_gates}"
        )
    nominal = (
        gate_leakage_currents(circuit, probs)
        if nominal_currents is None
        else nominal_currents
    )
    if np.any(nominal <= 0):
        raise PowerError("non-positive nominal gate leakage")
    s_l, s_v = circuit.library.log_leakage_sensitivities
    if relative_area is None:
        relative_area = circuit.state.sizes.copy()
    vth_indep = varmodel.vth_indep_for(relative_area)
    indep = np.hypot(s_l * varmodel.l_indep, s_v * vth_indep)
    return np.log(nominal), indep


def gate_log_leakage_terms(
    circuit: Circuit,
    varmodel: VariationModel,
    probs: Optional[Mapping[str, float]] = None,
    relative_area: np.ndarray | float | None = None,
    nominal_currents: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lognormal-sum ingredients for the current implementation state.

    Returns ``(log_means, global_loadings, indep_sigmas)`` aligned with the
    dense gate order, ready for
    :func:`repro.variation.lognormal.sum_of_lognormals`.
    ``nominal_currents`` passes per-gate nominal leakage the caller
    already holds (e.g. from a :class:`~repro.power.leakage.GateLeakage`);
    by default it is computed from ``probs``.
    """
    log_means, indep = _log_means_and_indep(
        circuit, varmodel, probs, relative_area, nominal_currents
    )
    return log_means, leakage_loadings(circuit, varmodel), indep


def analyze_statistical_leakage(
    circuit: Circuit,
    varmodel: VariationModel,
    probs: Optional[Mapping[str, float]] = None,
    derate_rdf_with_size: bool = True,
    nominal_currents: Optional[np.ndarray] = None,
    lognormal_sum: Optional[LognormalSum] = None,
) -> StatisticalLeakage:
    """Full-chip statistical leakage at the current implementation state.

    ``derate_rdf_with_size`` mirrors the timing-side configuration: wider
    gates see less RDF noise (sigma ~ 1/sqrt(size)).  ``nominal_currents``
    is as for :func:`gate_log_leakage_terms`.  ``lognormal_sum`` passes
    the :func:`leakage_lognormal_sum` of this circuit and model, which a
    caller evaluating many states builds once; by default it is built
    here.

    Traced as a ``leakage.analyze`` span (attributes ``gates`` and
    ``groups``, the number of distinct loading rows the moments were
    summed over) and counted in ``leakage_evals_total``.
    """
    tele = get_telemetry()
    tele.counter("leakage_evals_total").inc()
    with tele.span("leakage.analyze", gates=circuit.n_gates) as span:
        rel_area: np.ndarray | float | None = None
        if not derate_rdf_with_size:
            rel_area = 1.0
        log_means, indep = _log_means_and_indep(
            circuit, varmodel, probs, rel_area, nominal_currents
        )
        if lognormal_sum is None:
            lognormal_sum = leakage_lognormal_sum(circuit, varmodel)
        summary = lognormal_sum.summary(log_means, indep)
        span.set(groups=lognormal_sum.n_groups)
    return StatisticalLeakage(
        summary=summary,
        vdd=circuit.library.tech.vdd,
        nominal_current=float(np.exp(log_means).sum()),
    )
