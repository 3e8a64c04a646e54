"""Dynamic (switching) power.

Not the paper's optimization target, but required to report total power
and to sanity-check that leakage optimization does not silently explode
dynamic power (downsizing actually *reduces* it — the experiments report
both).  Standard zero-delay model::

    P_dyn = sum_g  0.5 * a_g * (C_load_g + C_parasitic_g) * Vdd^2 * f

with activities from :func:`repro.power.probability.switching_activities`
(``2 p (1 - p)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import PowerError
from ..timing.graph import TimingConfig, TimingView
from .probability import switching_activities

#: Default clock frequency for power reporting [Hz].
DEFAULT_CLOCK_HZ: float = 1.0e9


@dataclass(frozen=True)
class DynamicPower:
    """Per-gate and total dynamic power at a clock frequency."""

    powers: np.ndarray  # [W] per gate
    frequency: float

    @property
    def total(self) -> float:
        """Total dynamic power [W]."""
        return float(self.powers.sum())


def analyze_dynamic_power(
    circuit_or_view: Circuit | TimingView,
    frequency: float = DEFAULT_CLOCK_HZ,
    activities: Optional[Mapping[str, float]] = None,
    config: Optional[TimingConfig] = None,
) -> DynamicPower:
    """Dynamic power at the circuit's current implementation state.

    ``activities`` are per-net toggle rates by name, by default
    :func:`~repro.power.probability.switching_activities`'.  Loads come
    from :meth:`TimingView.load_caps` and parasitic caps from the
    library's table (:meth:`LibraryTables.parasitic_caps`); every gate's
    power is ``0.5 * a * cap * vdd * vdd * f``, multiplied in that order.
    """
    if frequency <= 0:
        raise PowerError(f"clock frequency must be positive, got {frequency}")
    view = (
        circuit_or_view
        if isinstance(circuit_or_view, TimingView)
        else TimingView(circuit_or_view, config)
    )
    circuit = view.circuit
    if activities is None:
        activities = switching_activities(circuit)
    names = circuit.topological_order()
    a = np.array([activities[name] for name in names], dtype=float)
    vdd = circuit.library.tech.vdd
    state = view.state
    parasitic = circuit.library.tables.parasitic_caps(
        state.cells, state.size_codes, state.sizes
    )
    cap = view.load_caps() + parasitic
    powers = 0.5 * a * cap * vdd * vdd * frequency
    return DynamicPower(powers=powers, frequency=frequency)
