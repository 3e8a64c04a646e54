"""Optimization moves and their local estimates.

Both optimizers search the same move space:

* **Vth swap** — reassign a LOW-Vth gate to HIGH-Vth: big leakage win
  (an order of magnitude per gate), moderate delay cost, no capacitance
  change;
* **downsize** — step a gate one notch down the size grid: leakage (and
  dynamic power) shrink proportionally, own delay grows, but every fanin
  driver *speeds up* because the gate's input capacitance drops;
* **length bias** (optional extension) — lengthen the channel one grid
  step: leakage drops exponentially (the same mechanism as a slow-corner
  Leff shift) for a small polynomial delay cost, no capacitance change.

Each move carries exact local estimates (leakage delta from the cell
tables, own-delay delta from the delay coefficients) used for ranking and
filtering; global correctness is enforced by the engine's exact
constraint re-validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from ..power.leakage import GateLeakageMemo
from ..tech.technology import VthClass
from ..timing.graph import TimingView


@dataclass(frozen=True)
class Move:
    """One candidate modification of a single gate."""

    index: int
    kind: str  # "vth" | "size" | "lbias"
    new_vth: Optional[VthClass] = None
    new_size: Optional[float] = None
    new_lbias: Optional[float] = None

    def key(self) -> Tuple[int, str, object]:
        """Hashable identity used by the engine's tabu set."""
        return (self.index, self.kind, self.new_vth or self.new_size or self.new_lbias)


#: Revert token: the gate's full implementation state before the move.
OldState = Tuple[float, VthClass, float]


def apply_move(view: TimingView, move: Move) -> OldState:
    """Apply a move; returns the prior ``(size, vth, length_bias)``."""
    gate = view.gates[move.index]
    old = (gate.size, gate.vth, gate.length_bias)
    if move.kind == "vth":
        gate.vth = move.new_vth  # type: ignore[assignment]
    elif move.kind == "size":
        gate.size = move.new_size  # type: ignore[assignment]
    else:
        gate.length_bias = move.new_lbias  # type: ignore[assignment]
    return old


def revert_move(view: TimingView, move: Move, old: OldState) -> None:
    """Undo a previously applied move."""
    gate = view.gates[move.index]
    gate.size, gate.vth, gate.length_bias = old


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
    """Exact change of the gate's own nominal delay under the move [s].

    Positive for leakage-reducing moves (they slow the gate).  Computed
    from the cached delay coefficients at ``load``, the gate's current
    load capacitance (``view.load_cap_of(move.index)``; a move changes
    no gate's own load, so one read of ``view.load_caps()`` serves every
    move scored at a state).
    """
    i_old, s_old = view.delay_coefficients(move.index)
    old = apply_move(view, move)
    try:
        i_new, s_new = view.delay_coefficients(move.index)
    finally:
        revert_move(view, move, old)
    return (i_new - i_old) + (s_new - s_old) * load


def fanin_cap_delta(view: TimingView, move: Move) -> float:
    """Input-capacitance change seen by each fanin driver [F].

    Zero for Vth swaps and length biasing; negative for downsizes (fanins
    get faster).
    """
    if move.kind != "size":
        return 0.0
    gate = view.gates[move.index]
    cell = view.cells[move.index]
    return cell.input_cap(move.new_size) - cell.input_cap(gate.size)  # type: ignore[arg-type]


def leakage_gain(view: TimingView, move: Move, leakage: GateLeakageMemo) -> float:
    """Nominal leakage-current reduction from the move [A] (positive good).

    Exact at the cell level: the state-weighted leakage at the move's
    target (size, vth, length bias) minus the current one, both read
    through the run's memo.
    """
    before = leakage.current(move.index)
    old = apply_move(view, move)
    try:
        after = leakage.current(move.index)
    finally:
        revert_move(view, move, old)
    return before - after
