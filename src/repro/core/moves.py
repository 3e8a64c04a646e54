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
constraint re-validation.  Candidates are enumerated and estimated as a
:class:`MoveBatch` of parallel arrays gathered from the circuit's state
arrays and the library's tables; :class:`Move` objects are built only
for the moves that get applied.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..power.leakage import GateLeakage
from ..tech.library import VTH_CLASSES, VTH_CODES
from ..tech.technology import VthClass
from ..timing.graph import TimingView

#: Move kinds by code, in name order: the engine's tie-break sorts by it.
KINDS: Tuple[str, ...] = ("lbias", "size", "vth")
_LBIAS, _SIZE, _VTH = range(3)


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


@dataclass(frozen=True)
class MoveBatch:
    """Moves as parallel arrays, one entry per move.

    Entry ``k`` moves gate ``index[k]`` by ``KINDS[kind[k]]``; ``sizes``,
    ``size_codes``, ``vths`` (codes) and ``length_biases`` hold that
    gate's whole implementation state after the move -- the moved field
    replaced, the others as they are now -- which is what the library
    table gathers read.
    """

    index: np.ndarray
    kind: np.ndarray
    sizes: np.ndarray
    size_codes: np.ndarray
    vths: np.ndarray
    length_biases: np.ndarray

    def __len__(self) -> int:
        return int(self.index.size)

    def take(self, which: np.ndarray) -> "MoveBatch":
        """The entries a mask or index array selects, in its order."""
        return MoveBatch(*(getattr(self, f.name)[which] for f in fields(self)))

    def move(self, k: int) -> Move:
        """Entry ``k`` as a :class:`Move`."""
        index, kind = int(self.index[k]), int(self.kind[k])
        if kind == _VTH:
            return Move(index=index, kind="vth", new_vth=VTH_CLASSES[self.vths[k]])
        if kind == _SIZE:
            return Move(index=index, kind="size", new_size=float(self.sizes[k]))
        return Move(index=index, kind="lbias", new_lbias=float(self.length_biases[k]))

    def matches(self, keys: Sequence[Tuple[int, str, object]]) -> np.ndarray:
        """Mask of the entries whose :meth:`Move.key` is in ``keys``."""
        hit = np.zeros(len(self), dtype=bool)
        for index, kind, target in keys:
            if kind == "vth":
                same = self.vths == VTH_CODES[target]  # type: ignore[index]
            elif kind == "size":
                same = self.sizes == target
            else:
                same = self.length_biases == target
            hit |= (self.index == index) & (self.kind == KINDS.index(kind)) & same
        return hit

    @classmethod
    def of(cls, view: TimingView, moves: Sequence[Move]) -> "MoveBatch":
        """The batch of the given moves at the view's current state."""
        state = view.state
        index = np.array([m.index for m in moves], dtype=np.intp)
        batch = cls(
            index=index,
            kind=np.array([KINDS.index(m.kind) for m in moves], dtype=np.intp),
            sizes=state.sizes[index],
            size_codes=state.size_codes[index],
            vths=state.vths[index],
            length_biases=state.length_biases[index],
        )
        for k, m in enumerate(moves):
            if m.kind == "vth":
                batch.vths[k] = VTH_CODES[m.new_vth]  # type: ignore[index]
            elif m.kind == "size":
                batch.sizes[k] = m.new_size
                code = view.library.size_code(m.new_size)  # type: ignore[arg-type]
                batch.size_codes[k] = code
            else:
                batch.length_biases[k] = m.new_lbias
        return batch


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


def enumerate_moves(
    view: TimingView,
    enable_vth: bool,
    enable_sizing: bool,
    enable_lbias: bool = False,
    lbias_step: float = 2e-9,
    lbias_max: float = 8e-9,
) -> MoveBatch:
    """All leakage-reducing move candidates at the current state, family
    by family (Vth swaps, downsizes, length-bias steps), each by gate.

    A Vth swap takes a LOW-Vth gate to HIGH; a downsize steps one notch
    down the size grid; a bias step adds ``lbias_step`` while the result
    stays within ``lbias_max``.  A gate whose size is off the grid asks
    :meth:`Library.next_size_down`, which raises unless the size is
    within tolerance of a grid size.
    """
    state = view.state
    columns = (state.sizes, state.size_codes, state.vths, state.length_biases)
    parts: List[Tuple[np.ndarray, int, tuple]] = []
    if enable_vth:
        index = np.flatnonzero(state.vths == VTH_CODES[VthClass.LOW])
        sizes, codes, _, biases = (column[index] for column in columns)
        high = np.full(index.size, VTH_CODES[VthClass.HIGH], dtype=np.intp)
        parts.append((index, _VTH, (sizes, codes, high, biases)))
    if enable_sizing:
        library = view.library
        index = np.flatnonzero(state.size_codes > 0)
        codes = state.size_codes[index] - 1
        sizes = library.tables.grid[codes]
        off = np.flatnonzero(state.size_codes < 0).tolist()
        steps = [(i, library.next_size_down(state.sizes.item(i))) for i in off]
        steps = [(i, smaller) for i, smaller in steps if smaller is not None]
        if steps:
            index = np.append(index, [i for i, _ in steps]).astype(np.intp)
            sizes = np.append(sizes, [smaller for _, smaller in steps])
            codes = np.append(codes, [library.size_code(s) for _, s in steps])
            codes = codes.astype(np.intp)
        vths, biases = state.vths[index], state.length_biases[index]
        parts.append((index, _SIZE, (sizes, codes, vths, biases)))
    if enable_lbias:
        stepped = state.length_biases + lbias_step
        index = np.flatnonzero(stepped <= lbias_max + 1e-15)
        sizes, codes, vths, _ = (column[index] for column in columns)
        parts.append((index, _LBIAS, (sizes, codes, vths, stepped[index])))
    if not parts:
        empty_f, empty_i = np.empty(0), np.empty(0, dtype=np.intp)
        return MoveBatch(empty_i, empty_i, empty_f, empty_i, empty_i, empty_f)
    return MoveBatch(
        index=np.concatenate([index for index, _, _ in parts]),
        kind=np.concatenate(
            [np.full(index.size, kind, dtype=np.intp) for index, kind, _ in parts]
        ),
        sizes=np.concatenate([t[0] for _, _, t in parts]),
        size_codes=np.concatenate([t[1] for _, _, t in parts]),
        vths=np.concatenate([t[2] for _, _, t in parts]),
        length_biases=np.concatenate([t[3] for _, _, t in parts]),
    )


def candidate_moves(
    view: TimingView,
    enable_vth: bool,
    enable_sizing: bool,
    enable_lbias: bool = False,
    lbias_step: float = 2e-9,
    lbias_max: float = 8e-9,
) -> Iterator[Move]:
    """All leakage-reducing move candidates at the current state, by gate
    (each gate's Vth swap, downsize and bias step in that order)."""
    batch = enumerate_moves(
        view, enable_vth, enable_sizing, enable_lbias, lbias_step, lbias_max
    )
    family = np.array([2, 1, 0])[batch.kind]  # KINDS code -> vth, size, lbias
    for k in np.lexsort((family, batch.index)).tolist():
        yield batch.move(k)


def own_delay_costs(
    view: TimingView, batch: MoveBatch, loads: np.ndarray
) -> np.ndarray:
    """Exact change of each moved gate's own nominal delay [s].

    Positive for leakage-reducing moves (they slow the gate).  The delay
    coefficients before and after the move are gathered from the
    library's tables and evaluated at ``loads``, each gate's current load
    capacitance (a move changes no gate's own load):
    ``(i_new - i_old) + (s_new - s_old) * load``.
    """
    state, index = view.state, batch.index
    cells = state.cells[index]
    tables = view.library.tables
    i_old, s_old = tables.delay_coefficients(
        cells, state.vths[index], state.size_codes[index], state.sizes[index],
        state.length_biases[index],
    )
    i_new, s_new = tables.delay_coefficients(
        cells, batch.vths, batch.size_codes, batch.sizes, batch.length_biases
    )
    return (i_new - i_old) + (s_new - s_old) * loads


def own_delay_cost(view: TimingView, move: Move, load: float) -> float:
    """:func:`own_delay_costs` of one move at ``load``, the gate's current
    load capacitance (``view.load_cap_of(move.index)``) [s]."""
    batch = MoveBatch.of(view, [move])
    return float(own_delay_costs(view, batch, np.array([load]))[0])


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


def leakage_gains(
    view: TimingView, batch: MoveBatch, leakage: GateLeakage
) -> np.ndarray:
    """Nominal leakage-current reduction of each move [A] (positive good).

    Exact at the cell level: the state-weighted leakage at the move's
    target (size, vth, length bias) subtracted from the current one, both
    evaluated by the run's :class:`~repro.power.leakage.GateLeakage`.
    """
    state, index = view.state, batch.index
    before = leakage.currents_at(
        index, state.vths[index], state.size_codes[index], state.sizes[index],
        state.length_biases[index],
    )
    after = leakage.currents_at(
        index, batch.vths, batch.size_codes, batch.sizes, batch.length_biases
    )
    return before - after


def leakage_gain(view: TimingView, move: Move, leakage: GateLeakage) -> float:
    """:func:`leakage_gains` of one move [A]."""
    return float(leakage_gains(view, MoveBatch.of(view, [move]), leakage)[0])
