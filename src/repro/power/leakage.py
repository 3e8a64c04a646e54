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
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..circuit.netlist import Circuit, Gate
from ..errors import PowerError
from ..tech.corners import ProcessCorner
from ..tech.technology import VthClass
from .probability import signal_probabilities


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


def gate_leakage_currents(
    circuit: Circuit,
    probs: Optional[Mapping[str, float]] = None,
    corner: Optional[ProcessCorner] = None,
) -> np.ndarray:
    """Mean leakage current of every gate [A], dense (topological) order.

    ``probs`` are net signal probabilities (computed if omitted); the
    corner applies the shared exponential process factor.

    All gates are evaluated in one pass with :meth:`Cell.leakage`'s
    per-element arithmetic in its order, so each current is bit for bit
    that method's value: the gate's ``Cell.leakage_by_state`` row (size
    applied and range-checked) is zero-padded to the widest gate's
    ``2**width`` states; state weights start at 1.0 and multiply by ``p``
    or ``1 - p`` bit by bit, with zero-padded input probabilities (so
    bits past a gate's arity multiply by exactly 1.0 and states past its
    ``2**n`` weigh 0); the weighted states accumulate from state 0 up;
    and a gate with a length (corner plus bias) or Vth deviation is
    scaled by ``math.exp`` of its exponent, one gate at a time, because
    NumPy's ``exp`` may differ in the last ulp.
    """
    circuit.freeze()
    if probs is None:
        probs = signal_probabilities(circuit)
    delta_l = corner.delta_l if corner is not None else 0.0
    delta_v = corner.delta_vth0 if corner is not None else 0.0
    gates = circuit.indexed_gates()
    rows: Dict[Tuple[str, VthClass, float], int] = {}
    tables = []
    table_of = []
    for gate in gates:
        key = (gate.cell_name, gate.vth, gate.size)
        row = rows.get(key)
        if row is None:
            row = rows[key] = len(tables)
            tables.append(circuit.cell_of(gate).leakage_by_state(gate.size, gate.vth))
        table_of.append(row)
    fanin_probs = [[probs[f] for f in gate.fanins] for gate in gates]
    width = max(map(len, fanin_probs))
    pins = np.array([p + [0.0] * (width - len(p)) for p in fanin_probs])
    n_states = 1 << width
    padded = np.zeros((len(tables), n_states))
    for row, table in enumerate(tables):
        padded[row, : table.shape[0]] = table
    states = padded[table_of]

    weights = np.ones_like(states)
    state_bits = np.arange(n_states)
    for bit in range(width):
        p = pins[:, bit : bit + 1]
        weights *= np.where((state_bits >> bit) & 1 == 1, p, 1.0 - p)
    currents = np.zeros(len(gates))
    for state in range(n_states):
        currents += weights[:, state] * states[:, state]

    d_l = delta_l + np.array([gate.length_bias for gate in gates])
    shifted = np.flatnonzero((d_l != 0.0) | (delta_v != 0.0))  # lint: ignore[RPR402] exact zero is Cell.leakage's no-deviation fast path, not a tolerance test
    if shifted.size:
        s_l, s_v = circuit.library.log_leakage_sensitivities
        exponents = s_l * d_l[shifted] + s_v * delta_v
        currents[shifted] *= [math.exp(x) for x in exponents.tolist()]
    return currents


def _gate_current(
    circuit: Circuit,
    gate: Gate,
    input_probs: Sequence[float],
    delta_l: float = 0.0,
    delta_v: float = 0.0,
) -> float:
    """Mean leakage current of one gate at its current state [A]."""
    # A deliberate length bias enters exactly like a process Leff shift:
    # exponentially less leakage for a slightly longer channel.
    return circuit.cell_of(gate).leakage(
        gate.size, gate.vth, input_probs,
        delta_l=delta_l + gate.length_bias, delta_vth0=delta_v,
    )


class GateLeakageMemo:
    """Nominal gate leakage currents, memoized by implementation state.

    :meth:`Cell.leakage` walks all ``2**n`` input states in Python, and an
    optimization run asks for the same (gate, size, Vth, length bias)
    points thousands of times -- every candidate move's gain, every
    objective evaluation.  This memo answers repeats from a dict, with
    the values :func:`gate_leakage_currents` computes (no corner).

    Scope it to one optimization run: input probabilities are fixed at
    construction, and every state the run visits stays in the memo, so
    a longer-lived one would grow without bound.

    ``gate_probs`` maps each gate name to its input probabilities (as
    :func:`~repro.power.probability.gate_input_probabilities` returns);
    a gate's entry is read on its first miss.
    """

    def __init__(
        self, circuit: Circuit, gate_probs: Mapping[str, Sequence[float]]
    ) -> None:
        circuit.freeze()
        self._circuit = circuit
        self._gates = circuit.indexed_gates()
        self._gate_probs = gate_probs
        self._memo: Dict[Tuple[int, float, VthClass, float], float] = {}

    def current(self, index: int) -> float:
        """Leakage current of gate ``index`` at its current state [A]."""
        gate = self._gates[index]
        key = (index, gate.size, gate.vth, gate.length_bias)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = _gate_current(
                self._circuit, gate, self._gate_probs[gate.name]
            )
        return value

    def currents(self) -> np.ndarray:
        """Leakage current of every gate at its current state [A], dense order."""
        return np.array([self.current(i) for i in range(len(self._gates))])


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
