"""Clark-max engine: the canonical SSTA behind the engine interface.

:func:`~repro.timing.ssta.run_ssta` does all the work; the max-delay
distribution *is* its canonical circuit delay (``GaussianDelay``
delegates every query to :class:`~repro.timing.canonical.Canonical`),
so yields, quantiles, and moments through this engine are bitwise the
``run_ssta`` result's own, and one ``analyze`` costs one ``run_ssta``.
"""

from __future__ import annotations

from typing import Optional

from ..circuit.netlist import Circuit
from ..timing.graph import TimingConfig, TimingView
from ..timing.ssta import run_ssta
from ..variation.model import VariationModel
from .base import GaussianDelay, TimingEngine, TimingResult


class ClarkEngine(TimingEngine):
    """First-order canonical SSTA with Clark's two-moment Gaussian max."""

    name = "clark"
    accepted_params = ("n_jobs",)

    def analyze(
        self,
        circuit_or_view: Circuit | TimingView,
        varmodel: VariationModel,
        config: Optional[TimingConfig] = None,
        **params: object,
    ) -> TimingResult:
        """Run SSTA and wrap its circuit delay.

        ``n_jobs`` is accepted for interface uniformity and ignored —
        the analytic propagation is single-pass and already cheap.
        """
        self._check_params(params)
        view = self._view_of(circuit_or_view, config)
        ssta = run_ssta(view, varmodel, config)
        return TimingResult(
            engine=self.name,
            max_delay=GaussianDelay(ssta.circuit_delay),
            n_gates=view.n_gates,
        )
