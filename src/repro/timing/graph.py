"""Timing view of a circuit.

:class:`TimingView` extracts, once per circuit *structure*, the index
arrays every timing engine needs (topological gate order, gate-fanin
indices, consumer pin lists, primary-output membership) while reading the
mutable implementation state (sizes, Vth flavours, length biases) live
from the circuit's state arrays on each query — so one view serves an
entire optimization run even as the optimizer rewrites sizes and
thresholds.

Loads follow the standard lumped model: a gate's output drives the input
capacitance of every consumer pin, one wire-capacitance lump per fanout
pin, and (for primary outputs) a configurable external load.

The view also carries the structure's :class:`LevelSchedule`, built once
and shared by every batched propagation kernel (canonical SSTA,
deterministic STA, Monte-Carlo STA).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import TimingError
from ..tech.library import VTH_CLASSES, Cell
from ..tech.technology import VthClass

if TYPE_CHECKING:
    from .ssta import SSTAResult


@dataclass(frozen=True)
class TimingConfig:
    """Knobs shared by all timing engines.

    Attributes
    ----------
    primary_output_load:
        External load on each primary output, in multiples of a unit
        inverter's input capacitance (4.0 = an FO4-ish environment).
    derate_rdf_with_size:
        Scale each gate's independent Vth sigma by ``1/sqrt(size)``
        (random dopant fluctuation averages down in wider devices).
    """

    primary_output_load: float = 4.0
    derate_rdf_with_size: bool = True


@dataclass(frozen=True)
class LevelSchedule:
    """Levelized batch schedule for vectorized propagation.

    ``levels`` lists, rank by rank, that rank's gate indices plus a dense
    fanin matrix padded with the sentinel column ``n_gates`` -- a virtual
    arrival pinned at the identity of the reduction (``-inf`` for
    ``max``), so ragged fanin counts batch into one exact reduction.
    Rank 0 is the fanin-free gates and carries an empty matrix.  Within a
    rank, gates are ordered by descending fanin count, so the gates that
    still fold at fanin column ``j`` are the leading ``active[rank][j]``
    rows: order-sensitive folds (Clark max) slice instead of masking.

    ``backward`` replays the scatter order of a sequential
    reverse-topological sweep -- gates by descending index, each gate's
    fanins in order -- rank by rank: ``(edges, targets)`` lists, for every
    fanin slot whose target is in the rank, the slot's flat position in
    the row-major concatenation of all padded fanin matrices (``offsets``
    gives each rank's start) and the fanin gate.  Accumulating per-slot
    values with an unbuffered scatter (``np.add.at``) in this order sums
    every target's contributions in exactly the sequential sweep's order.

    Built once per view and shipped to every Monte-Carlo shard worker
    (plain arrays, pickles cheaply).
    """

    n_gates: int
    levels: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    active: Tuple[Tuple[int, ...], ...]
    offsets: Tuple[int, ...]
    backward: Tuple[Tuple[np.ndarray, np.ndarray], ...]

    @classmethod
    def build(cls, fanin_gates: Sequence[np.ndarray]) -> "LevelSchedule":
        """Rank every gate and pack per-rank index/fanin arrays.

        The rank recurrence (one past the deepest fanin) is sequential
        by construction -- fanins precede their gate in topological
        order -- and runs once per structure, not per propagation; the
        packing around it is vectorized.
        """
        n = len(fanin_gates)
        if n == 0:
            return cls(n_gates=0, levels=(), active=(), offsets=(), backward=())
        fanin_lists = [fanins.tolist() for fanins in fanin_gates]
        rank_of = [0] * n
        for i, fanins in enumerate(fanin_lists):
            if fanins:
                rank_of[i] = max([rank_of[f] for f in fanins]) + 1
        rank = np.array(rank_of, dtype=np.intp)
        count = np.array([len(fanins) for fanins in fanin_lists], dtype=np.intp)
        n_levels = int(rank.max()) + 1

        # Rank-major, then descending fanin count, ties by gate index
        # (lexsort is stable).
        order = np.lexsort((-count, rank))
        bounds = np.searchsorted(rank[order], np.arange(n_levels + 1))
        sizes = np.diff(bounds)
        row = np.empty(n, dtype=np.intp)
        row[order] = np.arange(n) - np.repeat(bounds[:-1], sizes)
        widths = count[order[bounds[:-1]]]
        offsets = np.concatenate(([0], np.cumsum(sizes * widths)[:-1]))

        # Every fanin slot, in gate order then fanin order: its consumer,
        # position, target, and flat position in the padded matrices.
        consumer = np.repeat(np.arange(n), count)
        position = np.arange(consumer.size) - np.repeat(np.cumsum(count) - count, count)
        target = np.concatenate(fanin_gates).astype(np.intp)
        consumer_rank = rank[consumer]
        slot = offsets[consumer_rank] + row[consumer] * widths[consumer_rank] + position
        flat = np.full(int(np.sum(sizes * widths)), n, dtype=np.intp)
        flat[slot] = target

        levels, active = [], []
        for r in range(n_levels):
            m, width = int(sizes[r]), int(widths[r])
            matrix = flat[offsets[r] : offsets[r] + m * width].reshape(m, width)
            levels.append((order[bounds[r] : bounds[r + 1]], matrix))
            active.append(tuple(int(c) for c in (matrix < n).sum(axis=0)))

        # The sequential sweep visits gates by descending index, each
        # gate's fanins in order; group its slots by target rank, stably.
        sweep = np.lexsort((position, -consumer))
        sweep = sweep[np.argsort(rank[target[sweep]], kind="stable")]
        edge_bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(rank[target], minlength=n_levels)))
        )
        backward = tuple(
            (slot[sweep[a:b]], target[sweep[a:b]])
            for a, b in zip(edge_bounds[:-1], edge_bounds[1:])
        )
        return cls(
            n_gates=n,
            levels=tuple(levels),
            active=tuple(active),
            offsets=tuple(int(o) for o in offsets),
            backward=backward,
        )

    @property
    def n_slots(self) -> int:
        """Padded fanin slots over all ranks (the flat edge-array length)."""
        return sum(matrix.size for _, matrix in self.levels)

    @cached_property
    def n_merges(self) -> int:
        """Batched merge calls per forward pass: one per fanin column past
        the first, rank by rank (``width - 1`` for every rank with fanins)."""
        return sum(max(matrix.shape[1] - 1, 0) for _, matrix in self.levels)


class TimingView:
    """Structure-frozen, state-live view of a circuit for timing engines."""

    def __init__(self, circuit: Circuit, config: TimingConfig | None = None) -> None:
        circuit.freeze()
        self.circuit = circuit
        self.config = config or TimingConfig()
        self.library = circuit.library
        self.gates = circuit.indexed_gates()
        self.n_gates = len(self.gates)

        # Dense gate index by net name; every other net is a primary input.
        index = {gate.name: i for i, gate in enumerate(self.gates)}
        #: Per gate: indices of fanins that are gates (primary-input fanins
        #: contribute arrival 0 and are omitted).
        self.fanin_gates: List[np.ndarray] = [
            np.array([index[f] for f in gate.fanins if f in index], dtype=int)
            for gate in self.gates
        ]
        #: Per gate: True if at least one fanin is a primary input.
        self.has_input_fanin = np.array(
            [any(f not in index for f in gate.fanins) for gate in self.gates],
            dtype=bool,
        )
        #: Per gate: consumer gate indices, one entry per driven pin.
        self.consumer_pins: List[np.ndarray] = [
            np.array([index[c] for c in circuit.fanout_of(gate.name)], dtype=int)
            for gate in self.gates
        ]

        output_nets = set(circuit.outputs)
        #: Per gate: True if the gate drives a primary output.
        self.is_primary_output = np.array(
            [g.name in output_nets for g in self.gates], dtype=bool
        )
        if not self.is_primary_output.any():
            raise TimingError(
                f"{circuit.name}: no gate drives a primary output "
                "(all outputs are primary inputs?)"
            )

        self.cells: List[Cell] = [circuit.cell_of(g) for g in self.gates]
        #: The circuit's implementation state arrays (read live).
        self.state = circuit.state
        self._tables = self.library.tables
        self._po_load = self.config.primary_output_load * self.library.c_in_unit
        self._wire_cap = self.library.tech.wire_cap_per_fanout

        #: The structure's rank schedule, shared by every batched kernel.
        self.schedule = LevelSchedule.build(self.fanin_gates)
        # Consumer-pin incidence in load_cap_of's summation order (loaded
        # nets in dense order, each net's pins in fanout order): pin p adds
        # the input cap of gate ``_pin_gate[p]`` to the load of net
        # ``_pin_net[p]``.
        pin_counts = np.array([pins.size for pins in self.consumer_pins], dtype=np.intp)
        self._pin_net = np.repeat(np.arange(self.n_gates), pin_counts)
        self._pin_gate = np.concatenate(self.consumer_pins).astype(np.intp)
        self._pin_cells = self.state.cells[self._pin_gate]
        self._wire_loads = self._wire_cap * pin_counts
        #: The last SSTA result on this view and the gate-delay canonical
        #: rows it was propagated from (``None`` before the first run);
        #: :func:`~repro.timing.ssta.run_ssta` reuses it when the rows repeat.
        self.last_ssta: Optional[Tuple[np.ndarray, "SSTAResult"]] = None

    # -- state-live queries ---------------------------------------------------

    def sizes(self) -> np.ndarray:
        """Current gate sizes, dense order (a copy)."""
        return self.state.sizes.copy()

    def vths(self) -> List[VthClass]:
        """Current Vth flavours, dense order."""
        return [VTH_CLASSES[code] for code in self.state.vths.tolist()]

    def load_caps(self) -> np.ndarray:
        """Current load capacitance of every gate's output net [F].

        One ``np.bincount`` over the consumer-pin incidence: ``bincount``
        accumulates its weights sequentially in input order, and the pins
        are stored in :meth:`load_cap_of`'s order, so every entry equals
        ``load_cap_of(i)`` bit for bit.  Pin caps are gathered from the
        library's input-cap table (:meth:`LibraryTables.input_caps`), so
        a size off the grid takes :meth:`Cell.input_cap` and an
        out-of-range size raises the library's error as before.
        """
        state, pins = self.state, self._pin_gate
        pin_caps = self._tables.input_caps(
            self._pin_cells, state.size_codes[pins], state.sizes[pins]
        )
        # (An empty incidence makes bincount return integer zeros; adding
        # the float wire loads yields float64 either way.)
        loads = (
            np.bincount(self._pin_net, weights=pin_caps, minlength=self.n_gates)
            + self._wire_loads
        )
        loads[self.is_primary_output] += self._po_load
        return loads

    def load_cap_of(self, index: int) -> float:
        """Current load capacitance of one gate's output net [F]."""
        total = 0.0
        for pin in self.consumer_pins[index]:
            consumer = self.gates[pin]
            total += self.cells[pin].input_cap(consumer.size)
        total += self._wire_cap * len(self.consumer_pins[index])
        if self.is_primary_output[index]:
            total += self._po_load
        return total

    def coefficients(
        self, index: np.ndarray | slice = slice(None)
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(intrinsic, slope)`` arrays of gates ``index`` at their current state.

        Nominal delay is ``intrinsic + slope * load``; both depend only on
        (cell, size, vth, length bias) and are gathered from the
        library's tables (:meth:`LibraryTables.delay_coefficients`).  A
        gate-length bias multiplies both terms by the drive model's
        resistance factor at ``delta_l = bias`` -- biasing slows the gate
        exactly as a longer channel would.
        """
        state = self.state
        return self._tables.delay_coefficients(
            state.cells[index], state.vths[index], state.size_codes[index],
            state.sizes[index], state.length_biases[index],
        )

    def delay_coefficients(self, index: int) -> Tuple[float, float]:
        """``(intrinsic, slope)`` of gate ``index`` at its current state.

        An unbiased gate on the size grid reads its table entries
        directly; any other takes :meth:`coefficients` for the one gate.
        """
        state, tables = self.state, self._tables
        code = state.size_codes.item(index)
        if code < 0 or state.length_biases.item(index) != 0.0:  # lint: ignore[RPR402] an exact zero bias needs no factor, not a tolerance test
            intrinsic, slope = self.coefficients(slice(index, index + 1))
            return intrinsic.item(), slope.item()
        key = (state.cells.item(index), state.vths.item(index), code)
        return tables.intrinsic.item(key), tables.slope.item(key)

    def nominal_delay_of(self, index: int) -> float:
        """Nominal propagation delay of one gate at its current state [s]."""
        intrinsic, slope = self.delay_coefficients(index)
        return intrinsic + slope * self.load_cap_of(index)

    def nominal_delays(self) -> np.ndarray:
        """Nominal propagation delays of all gates [s].

        Elementwise ``intrinsic + slope * load`` over :meth:`load_caps`:
        the same operations as :meth:`nominal_delay_of`, entry by entry.
        """
        loads = self.load_caps()
        intrinsic, slope = self.coefficients()
        return intrinsic + slope * loads

    def primary_output_indices(self) -> np.ndarray:
        """Dense indices of gates driving primary outputs."""
        return np.flatnonzero(self.is_primary_output)

    def rdf_relative_area(self) -> np.ndarray:
        """Per-gate relative device area for RDF de-rating (= size, or 1s)."""
        if self.config.derate_rdf_with_size:
            return self.sizes()
        return np.ones(self.n_gates)
