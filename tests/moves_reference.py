"""Reference implementations of candidate scoring (test oracle).

These are the per-move loops the optimizer ran before candidate scoring
became array gathers, kept verbatim in operation order so the batched
code can be held to them bit for bit:

* :func:`collect_candidates` is ``GreedyEngine._collect_candidates``'s
  loop: enumerate, skip tabu keys, score ``gain / max(cost, floor)`` one
  move at a time, sort by ``(-score, index, kind)``;
* :func:`candidate_moves`, :func:`own_delay_cost` and
  :func:`leakage_gain` are the per-move helpers it called, and
  :class:`GateLeakageMemo` the dict memo behind the gains;
* :func:`statistical_move_allowed` / :func:`statistical_move_cost` and
  the deterministic pair are the strategies' per-move filter and cost;
* :func:`helpful_upsizes` and :func:`upsize_effect` are initial sizing's
  per-gate loop (``minimize_delay``'s scoring before it was batched),
  which writes and restores each gate's size to read its coefficients.

Delay coefficients come from :func:`delay_coefficients`, the view's
per-gate definition before the library tables: ``Cell``'s scalar
coefficients with the length-bias factor applied when the bias is
nonzero.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.circuit.netlist import Circuit, Gate
from repro.core.moves import Move, apply_move, revert_move
from repro.tech.technology import VthClass
from repro.timing.graph import TimingView

#: The engine's floor in the score denominator.
COST_FLOOR = 1e-15
#: The statistical strategy's criticality floor.
CRITICALITY_FLOOR = 1e-3


def delay_coefficients(view: TimingView, index: int) -> Tuple[float, float]:
    """``(intrinsic, slope)`` of gate ``index`` at its current state."""
    gate = view.gates[index]
    coeffs = view.cells[index].nominal_delay_coefficients(gate.size, gate.vth)
    if gate.length_bias:
        model = view.library.drive_model(gate.vth)
        x = model.d_lnr_d_deltal * gate.length_bias
        factor = 1.0 + x + 0.5 * x * x
        coeffs = (coeffs[0] * factor, coeffs[1] * factor)
    return coeffs


def candidate_moves(
    view: TimingView,
    enable_vth: bool,
    enable_sizing: bool,
    enable_lbias: bool = False,
    lbias_step: float = 2e-9,
    lbias_max: float = 8e-9,
) -> Iterator[Move]:
    """All leakage-reducing move candidates at the current state."""
    next_size_down = view.library.next_size_down
    for index, gate in enumerate(view.gates):
        if enable_vth and gate.vth is VthClass.LOW:
            yield Move(index=index, kind="vth", new_vth=VthClass.HIGH)
        if enable_sizing:
            smaller = next_size_down(gate.size)
            if smaller is not None:
                yield Move(index=index, kind="size", new_size=smaller)
        if enable_lbias and gate.length_bias + lbias_step <= lbias_max + 1e-15:
            yield Move(
                index=index, kind="lbias",
                new_lbias=gate.length_bias + lbias_step,
            )


def own_delay_cost(view: TimingView, move: Move, load: float) -> float:
    """Exact change of the gate's own nominal delay under the move [s]."""
    i_old, s_old = delay_coefficients(view, move.index)
    old = apply_move(view, move)
    try:
        i_new, s_new = delay_coefficients(view, move.index)
    finally:
        revert_move(view, move, old)
    return (i_new - i_old) + (s_new - s_old) * load


def _gate_current(
    circuit: Circuit,
    gate: Gate,
    input_probs: Sequence[float],
    delta_l: float = 0.0,
    delta_v: float = 0.0,
) -> float:
    """Mean leakage current of one gate at its current state [A]."""
    return circuit.cell_of(gate).leakage(
        gate.size, gate.vth, input_probs,
        delta_l=delta_l + gate.length_bias, delta_vth0=delta_v,
    )


class GateLeakageMemo:
    """Nominal gate leakage currents, memoized by implementation state.

    ``gate_probs`` maps each gate name to its input probabilities; a
    gate's entry is read on its first miss.
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


def leakage_gain(view: TimingView, move: Move, leakage: GateLeakageMemo) -> float:
    """Nominal leakage-current reduction from the move [A] (positive good)."""
    before = leakage.current(move.index)
    old = apply_move(view, move)
    try:
        after = leakage.current(move.index)
    finally:
        revert_move(view, move, old)
    return before - after


def statistical_move_allowed(strategy, state, move: Move, delay_cost: float) -> bool:
    slack = float(state.sta.slacks[move.index])
    return delay_cost <= slack * strategy.config.slack_safety


def statistical_move_cost(strategy, state, move: Move, delay_cost: float) -> float:
    crit = max(float(state.ssta.criticality[move.index]), CRITICALITY_FLOOR)
    slack = max(float(state.sta.slacks[move.index]), 1e-15)
    return delay_cost * crit / slack


def deterministic_move_allowed(strategy, state, move: Move, delay_cost: float) -> bool:
    slack = float(state.sta.slacks[move.index])
    return delay_cost * strategy._corner_factor <= slack * strategy.config.slack_safety


def deterministic_move_cost(strategy, state, move: Move, delay_cost: float) -> float:
    slack = max(float(state.sta.slacks[move.index]), 1e-15)
    return delay_cost * strategy._corner_factor / slack


def collect_candidates(
    view: TimingView,
    config,
    state,
    tabu: Set[Tuple[int, str, object]],
    leakage: GateLeakageMemo,
    move_allowed,
    move_cost,
) -> List[Tuple[float, Move]]:
    """``(score, move)`` of every allowed, non-tabu move with a gain, best first."""
    scored: List[Tuple[float, Move]] = []
    loads = view.load_caps().tolist()
    for move in candidate_moves(
        view,
        config.enable_vth,
        config.enable_sizing,
        config.enable_lbias,
        config.lbias_step,
        config.lbias_max,
    ):
        if move.key() in tabu:
            continue
        gain = leakage_gain(view, move, leakage)
        if gain <= 0.0:
            continue
        delay_cost = own_delay_cost(view, move, loads[move.index])
        if delay_cost < 0.0:
            delay_cost = 0.0  # downsizing an overloaded stage can help
        if not move_allowed(state, move, delay_cost):
            continue
        cost = max(move_cost(state, move, delay_cost), COST_FLOOR)
        scored.append((gain / cost, move))
    scored.sort(key=lambda item: (-item[0], item[1].index, item[1].kind))
    return scored


def upsize_effect(view: TimingView, index: int, new_size: float) -> float:
    """Local circuit-delay change from resizing one gate (negative is better)."""
    gate = view.gates[index]
    old_size = gate.size
    cell = view.cells[index]
    load = view.load_cap_of(index)
    intrinsic_old, slope_old = view.delay_coefficients(index)
    try:
        gate.size = new_size
        intrinsic_new, slope_new = view.delay_coefficients(index)
    finally:
        gate.size = old_size
    own = (intrinsic_new - intrinsic_old) + (slope_new - slope_old) * load
    delta_cap = cell.input_cap(new_size) - cell.input_cap(old_size)
    fanin_effect = 0.0
    for f in view.fanin_gates[index]:
        _, slope_f = view.delay_coefficients(int(f))
        fanin_effect += slope_f * delta_cap
    return own + fanin_effect


def helpful_upsizes(view: TimingView, sta, window_fraction: float = 0.02) -> List[Tuple[float, int, float]]:
    """(effect, gate index, new size) for near-critical helpful upsizes."""
    window = sta.circuit_delay * window_fraction
    out: List[Tuple[float, int, float]] = []
    for index in np.flatnonzero(sta.slacks <= window):
        gate = view.gates[int(index)]
        bigger = view.library.next_size_up(gate.size)
        if bigger is None:
            continue
        effect = upsize_effect(view, int(index), bigger)
        if effect < 0.0:
            out.append((effect, int(index), bigger))
    out.sort()
    return out
