"""Deterministic (nominal / corner) leakage analysis (substrate S10).

Per-gate leakage is the cell's state-probability-weighted subthreshold
current at the gate's current size and Vth flavour; the chip total is a
sum.  A :class:`~repro.tech.corners.ProcessCorner` shifts every gate by the
shared lognormal factor — this is the "nominal leakage" a deterministic
flow optimizes, and what experiment T2 reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import PowerError
from ..tech.corners import ProcessCorner
from .probability import pin_probabilities


@dataclass(frozen=True)
class LeakageBreakdown:
    """Per-gate and total leakage at one process point.

    ``currents`` is indexed by dense gate index; ``power = current * vdd``.
    """

    currents: np.ndarray  # [A] per gate
    vdd: float

    @property
    def total_current(self) -> float:
        """Total leakage current [A]."""
        return float(self.currents.sum())

    @property
    def total_power(self) -> float:
        """Total leakage power [W]."""
        return self.total_current * self.vdd

    def power_of(self, index: int) -> float:
        """Leakage power of one gate [W]."""
        return float(self.currents[index]) * self.vdd


class GateLeakage:
    """Nominal gate leakage currents at any implementation state.

    A gate's mean current weighs its input states by their probability,
    and the weights depend only on the gate's input probabilities, so
    they are built once, here, for the whole circuit; every evaluation
    then gathers state rows from the library's leakage table
    (:meth:`LibraryTables.leakage_rows`).  Each current is bit for bit
    :meth:`Cell.leakage`'s value: the gate's ``Cell.leakage_by_state`` row
    (size applied) is zero-padded to the widest gate's ``2**width``
    states; state weights start at 1.0 and multiply by ``p`` or ``1 - p``
    bit by bit, with zero-padded input probabilities (so bits past a
    gate's arity multiply by exactly 1.0 and states past its ``2**n``
    weigh 0); the weighted states accumulate from state 0 up
    (``np.add.accumulate`` along the row, whose running sum is that
    sequential loop); and a gate with a length (corner plus bias) or Vth
    deviation is scaled by ``math.exp`` of its exponent, one gate at a
    time, because NumPy's ``exp`` may differ in the last ulp.

    ``pin_probs`` holds every gate's input probabilities, dense order,
    zero-padded to the widest gate's arity (as
    :func:`~repro.power.probability.pin_probabilities` returns).  A flow
    builds one and shares it between its objective and every phase's
    candidate scoring.
    """

    def __init__(self, circuit: Circuit, pin_probs: np.ndarray) -> None:
        self._state = circuit.state
        self._tables = circuit.library.tables
        self._sensitivities = circuit.library.log_leakage_sensitivities
        n_gates, width = pin_probs.shape
        self._n_states = 1 << width
        state_bits = np.arange(self._n_states)
        weights = np.ones((n_gates, self._n_states))
        for bit in range(width):
            p = pin_probs[:, bit : bit + 1]
            weights *= np.where((state_bits >> bit) & 1 == 1, p, 1.0 - p)
        self._weights = weights

    def currents(self, corner: Optional[ProcessCorner] = None) -> np.ndarray:
        """Leakage current of every gate at its current state [A], dense order.

        The corner applies the shared exponential process factor.
        """
        state = self._state
        return self._evaluate(
            self._weights, state.cells, state.vths, state.size_codes,
            state.sizes, state.length_biases,
            corner.delta_l if corner is not None else 0.0,
            corner.delta_vth0 if corner is not None else 0.0,
        )

    def currents_at(
        self,
        index: np.ndarray,
        vths: np.ndarray,
        size_codes: np.ndarray,
        sizes: np.ndarray,
        length_biases: np.ndarray,
    ) -> np.ndarray:
        """Nominal leakage currents of gates ``index`` at the given states
        (Vth codes, size codes, sizes and length biases, one per entry) [A]."""
        return self._evaluate(
            self._weights[index], self._state.cells[index], vths, size_codes,
            sizes, length_biases, 0.0, 0.0,
        )

    def _evaluate(
        self,
        weights: np.ndarray,
        cells: np.ndarray,
        vths: np.ndarray,
        size_codes: np.ndarray,
        sizes: np.ndarray,
        length_biases: np.ndarray,
        delta_l: float,
        delta_v: float,
    ) -> np.ndarray:
        states = self._tables.leakage_rows(
            cells, vths, size_codes, sizes, self._n_states
        )
        currents = np.add.accumulate(weights * states, axis=1)[:, -1].copy()
        # A deliberate length bias enters exactly like a process Leff
        # shift: exponentially less leakage for a slightly longer channel.
        d_l = delta_l + length_biases
        shifted = np.flatnonzero((d_l != 0.0) | (delta_v != 0.0))  # lint: ignore[RPR402] exact zero is Cell.leakage's no-deviation fast path, not a tolerance test
        if shifted.size:
            s_l, s_v = self._sensitivities
            exponents = s_l * d_l[shifted] + s_v * delta_v
            currents[shifted] *= [math.exp(x) for x in exponents.tolist()]
        return currents


def gate_leakage_currents(
    circuit: Circuit,
    probs: Optional[Mapping[str, float]] = None,
    corner: Optional[ProcessCorner] = None,
) -> np.ndarray:
    """Mean leakage current of every gate [A], dense (topological) order.

    ``probs`` are net signal probabilities (computed if omitted); the
    corner applies the shared exponential process factor.  One
    :class:`GateLeakage` evaluation, bit for bit :meth:`Cell.leakage`.
    """
    return GateLeakage(circuit, pin_probabilities(circuit, probs)).currents(corner)


def analyze_leakage(
    circuit: Circuit,
    probs: Optional[Mapping[str, float]] = None,
    corner: Optional[ProcessCorner] = None,
) -> LeakageBreakdown:
    """Nominal/corner leakage of the whole circuit."""
    currents = gate_leakage_currents(circuit, probs, corner)
    return LeakageBreakdown(currents=currents, vdd=circuit.library.tech.vdd)


def leakage_by_vth_class(circuit: Circuit, breakdown: LeakageBreakdown) -> Dict[str, float]:
    """Split total leakage power by Vth flavour — composition figure F5."""
    if breakdown.currents.shape[0] != circuit.n_gates:
        raise PowerError("breakdown does not match circuit")
    totals: Dict[str, float] = {}
    for gate in circuit.indexed_gates():
        idx = circuit.gate_index(gate.name)
        key = gate.vth.value
        totals[key] = totals.get(key, 0.0) + breakdown.power_of(idx)
    return totals
