"""Deterministic static timing analysis (substrate S7).

Classic topological STA over the :class:`~repro.timing.graph.TimingView`:
arrival times forward, required times backward, slacks, and (traced on
first read) the critical path.  Optionally evaluated at a
:class:`~repro.tech.corners.ProcessCorner` — which is precisely how the
deterministic baseline optimizer sees timing, and the pessimism the
statistical flow removes.

Both passes run rank by rank over the view's
:class:`~repro.timing.graph.LevelSchedule`; ``max`` and ``min`` are exact,
so the batched passes give the sequential per-gate sweeps' bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import TimingError
from ..tech.corners import ProcessCorner
from ..tech.library import VTH_CLASSES
from ..telemetry import get_telemetry
from .graph import LevelSchedule, TimingConfig, TimingView


@dataclass(frozen=True)
class STAResult:
    """Output of one deterministic STA run (all times in seconds).

    Arrays are indexed by dense gate index (topological order).
    """

    arrivals: np.ndarray
    required: np.ndarray
    gate_delays: np.ndarray
    circuit_delay: float
    target_delay: float
    #: The view the run timed (its structure: names, fanins, outputs).
    _view: TimingView = field(repr=False, compare=False)

    @cached_property
    def critical_path(self) -> tuple[str, ...]:
        """Gate names from a primary input to the latest primary output,
        each gate's latest-arriving fanin before it; traced on first read."""
        return tuple(_trace_critical_path(self._view, self.arrivals))

    @cached_property
    def slacks(self) -> np.ndarray:
        """Per-gate slack (required - arrival), built on first read (read-only)."""
        slacks = self.required - self.arrivals
        slacks.flags.writeable = False
        return slacks

    @property
    def worst_slack(self) -> float:
        """Minimum slack over all gates."""
        return float(self.slacks.min())

    @property
    def meets_target(self) -> bool:
        """Whether the circuit meets the target delay (tiny tolerance)."""
        return self.circuit_delay <= self.target_delay * (1.0 + 1e-12)


def corner_delay_factors(library, corner: ProcessCorner) -> np.ndarray:
    """Multiplicative delay factor at a process corner, per Vth code.

    The drive model's resistance shift is uniform within a Vth class
    (sensitivities are size-independent), so a corner scales every gate
    of a class by one factor: ``1 + s + s**2/2`` of the class's shift.
    """
    factors = []
    for model in (library.drive_model(v) for v in VTH_CLASSES):
        shift = (
            model.d_lnr_d_deltal * corner.delta_l
            + model.d_lnr_d_deltavth * corner.delta_vth0
        )
        factors.append(1.0 + shift + 0.5 * shift * shift)
    return np.array(factors)


def corner_delay_factor(view: TimingView, corner: ProcessCorner) -> dict:
    """Per-Vth-class delay factor at a process corner, for the classes the
    view's gates use now (see :func:`corner_delay_factors`)."""
    factors = corner_delay_factors(view.library, corner).tolist()
    return {
        VTH_CLASSES[code]: factors[code]
        for code in np.unique(view.state.vths).tolist()
    }


def run_sta(
    circuit_or_view: Circuit | TimingView,
    target_delay: Optional[float] = None,
    corner: Optional[ProcessCorner] = None,
    config: Optional[TimingConfig] = None,
) -> STAResult:
    """Run deterministic STA.

    Parameters
    ----------
    circuit_or_view:
        A circuit (a view is built ad hoc) or a prebuilt
        :class:`TimingView` (preferred inside optimization loops).
    target_delay:
        Required time at every primary output; defaults to the computed
        circuit delay (zero worst slack).
    corner:
        Optional process corner; omitted means nominal.
    """
    view = (
        circuit_or_view
        if isinstance(circuit_or_view, TimingView)
        else TimingView(circuit_or_view, config)
    )
    get_telemetry().counter("sta_runs_total").inc()
    delays = view.nominal_delays()
    if corner is not None:
        delays = delays * corner_delay_factors(view.library, corner)[view.state.vths]

    arrivals = _arrival_times(view.schedule, delays)
    po = view.primary_output_indices()
    circuit_delay = float(arrivals[po].max())
    if target_delay is None:
        target_delay = circuit_delay
    if target_delay <= 0:
        raise TimingError(f"target delay must be positive, got {target_delay}")

    required = _required_times(view.schedule, delays, po, target_delay)
    # Gates with no path to any primary output keep +inf required time;
    # clamp them to the target so slack stays finite (they are timing-
    # irrelevant, and lint flags them separately).
    required[np.isinf(required)] = target_delay

    return STAResult(
        arrivals=arrivals,
        required=required,
        gate_delays=delays,
        circuit_delay=circuit_delay,
        target_delay=float(target_delay),
        _view=view,
    )


def _arrival_times(schedule: LevelSchedule, delays: np.ndarray) -> np.ndarray:
    """Forward pass, one rank at a time: ``max(fanin arrivals) + delay``.

    Primary-input fanins arrive at t=0; they only matter when they are a
    gate's *only* fanins, and then the gate's arrival is its own delay.
    The padded fanin slots read the sentinel arrival ``-inf``, the
    identity of ``max``; ``max`` is exact, so the result does not depend
    on the order fanins are compared in.
    """
    n = schedule.n_gates
    arrivals = np.full(n + 1, -np.inf)
    for gates, fanins in schedule.levels:
        if fanins.shape[1] == 0:
            arrivals[gates] = delays[gates]
            continue
        worst = arrivals[fanins[:, 0]]
        for j in range(1, fanins.shape[1]):
            np.maximum(worst, arrivals[fanins[:, j]], out=worst)
        arrivals[gates] = worst + delays[gates]
    return arrivals[:n]


def _required_times(
    schedule: LevelSchedule,
    delays: np.ndarray,
    po: np.ndarray,
    target_delay: float,
) -> np.ndarray:
    """Backward pass, one rank at a time from the outputs.

    A rank's required times are final once every higher rank has passed
    ``required - delay`` down to its fanins; ``np.minimum.at`` keeps every
    term when a gate lists a fanin twice.  Padded slots write into a
    sentinel entry that is dropped.  Gates with no path to an output stay
    at ``+inf`` (and pass ``+inf`` on, which never lowers a minimum).
    """
    n = schedule.n_gates
    required = np.full(n + 1, math.inf)
    required[po] = target_delay
    for gates, fanins in reversed(schedule.levels):
        if fanins.shape[1] == 0:
            continue
        latest_input_arrival = required[gates] - delays[gates]
        np.minimum.at(
            required,
            fanins.ravel(),
            np.repeat(latest_input_arrival, fanins.shape[1]),
        )
    return required[:n]


def _trace_critical_path(view: TimingView, arrivals: np.ndarray) -> List[str]:
    po = view.primary_output_indices()
    current = int(po[np.argmax(arrivals[po])])
    path = [view.gates[current].name]
    while True:
        fanins = view.fanin_gates[current]
        if fanins.size == 0:
            break
        current = int(fanins[np.argmax(arrivals[fanins])])
        path.append(view.gates[current].name)
    path.reverse()
    return path
