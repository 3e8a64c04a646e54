"""Timing view of a circuit.

:class:`TimingView` derives, once per circuit *structure*, the index
arrays every timing engine needs (topological gate order, gate-fanin
indices, consumer pin incidence, primary-output membership) from the
circuit's pin index, while reading the mutable implementation state
(sizes, Vth flavours, length biases) live from the circuit's state arrays
on each query — so one view serves an entire optimization run even as the
optimizer rewrites sizes and thresholds.  What it derives from the state
(loads, nominal delays, the last SSTA) is kept for the state's current
:attr:`~repro.circuit.netlist.StateArrays.version` only.

Loads follow the standard lumped model: a gate's output drives the input
capacitance of every consumer pin, one wire-capacitance lump per fanout
pin, and (for primary outputs) a configurable external load.

The view also carries the structure's :class:`LevelSchedule`, built once
and shared by the batched propagation kernels (deterministic STA,
Monte-Carlo STA, the SSTA criticality scatter), and, on first use, the
:class:`WaveSchedule` canonical SSTA's forward pass runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import TimingError
from ..tech.library import VTH_CLASSES, Cell
from ..tech.technology import VthClass
from .canonical import MergeBatch

if TYPE_CHECKING:
    from .ssta import LastSSTA


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
    Rank 0 is the fanin-free gates and carries an empty matrix; within a
    rank, gates are in index order.

    ``backward`` replays the scatter order of a sequential
    reverse-topological sweep -- gates by descending index, each gate's
    fanins in order -- rank by rank: ``(edges, targets)`` lists, for every
    fanin slot whose target is in the rank, the slot's flat position in
    the row-major concatenation of all padded fanin matrices (``offsets``
    gives each rank's start) and the fanin gate.  Accumulating per-slot
    values with an unbuffered scatter (``np.add.at``) in this order sums
    every target's contributions in exactly the sequential sweep's order.

    ``fanins`` is every gate's fanin row in gate order, padded with
    ``n_gates`` to the largest fanin count (at least 1).

    Built once per view and shipped to every Monte-Carlo shard worker
    (plain arrays, pickles cheaply).
    """

    n_gates: int
    levels: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    offsets: Tuple[int, ...]
    backward: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    fanins: np.ndarray

    @classmethod
    def build(
        cls, rank: np.ndarray, count: np.ndarray, target: np.ndarray
    ) -> "LevelSchedule":
        """Pack per-rank index/fanin arrays, all at once.

        ``rank`` is each gate's rank (0 without gate fanins, else one
        past its deepest gate fanin's: the circuit's
        :attr:`~repro.circuit.netlist.PinIndex.rank`), ``count`` its
        number of gate fanins and ``target`` every gate's gate fanins,
        gate by gate, each in pin order.
        """
        n = rank.size
        if n == 0:
            return cls(
                n_gates=0, levels=(), offsets=(), backward=(),
                fanins=np.zeros((0, 1), dtype=np.intp),
            )
        n_levels = int(rank.max()) + 1

        order = np.argsort(rank, kind="stable")
        bounds = np.searchsorted(rank[order], np.arange(n_levels + 1))
        sizes = np.diff(bounds)
        row = np.empty(n, dtype=np.intp)
        row[order] = np.arange(n) - np.repeat(bounds[:-1], sizes)
        widths = np.maximum.reduceat(count[order], bounds[:-1])
        offsets = np.concatenate(([0], np.cumsum(sizes * widths)[:-1]))

        # Every fanin slot, in gate order then fanin order: its consumer,
        # position, target, and flat position in the padded matrices.
        consumer = np.repeat(np.arange(n), count)
        position = np.arange(consumer.size) - np.repeat(np.cumsum(count) - count, count)
        consumer_rank = rank[consumer]
        slot = offsets[consumer_rank] + row[consumer] * widths[consumer_rank] + position
        flat = np.full(int(np.sum(sizes * widths)), n, dtype=np.intp)
        flat[slot] = target
        fanins = np.full((n, max(int(widths.max()), 1)), n, dtype=np.intp)
        fanins[consumer, position] = target

        levels = []
        for r in range(n_levels):
            m, width = int(sizes[r]), int(widths[r])
            matrix = flat[offsets[r] : offsets[r] + m * width].reshape(m, width)
            levels.append((order[bounds[r] : bounds[r + 1]], matrix))

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
            offsets=tuple(int(o) for o in offsets),
            backward=backward,
            fanins=fanins,
        )

    @property
    def n_slots(self) -> int:
        """Padded fanin slots over all ranks (the flat edge-array length)."""
        return sum(matrix.size for _, matrix in self.levels)


class AddBatch(NamedTuple):
    """One batch of delay adds: gate ``gates[i]``'s arrival is row
    ``src[i]`` (its folded fanins) plus the gate's own delay.

    Held as Python lists for the per-row scalars and as index arrays for
    the ``(rows, k)`` sensitivities, like
    :class:`~repro.timing.canonical.MergeBatch`.
    """

    src: List[int]
    gates: List[int]
    src_rows: np.ndarray
    gate_rows: np.ndarray


#: One wave: a batch of Clark merges, then a batch of adds (either may be None).
Wave = Tuple[Optional[MergeBatch], Optional[AddBatch]]


@dataclass(frozen=True)
class WaveSchedule:
    """As-soon-as-ready schedule of canonical SSTA's merges and adds.

    Arrivals live in ``n_gates + 1`` rows: a gate's row holds its
    accumulator until its delay is added, then its arrival; row
    ``n_gates`` is the *sink*, a virtual gate whose fanins are the
    primary outputs in ``po`` order and which adds no delay.  A gate
    without gate fanins starts at its delay and is ready at wave 0.
    Merge ``(g, j)`` folds gate ``g``'s fanin ``j >= 1`` into its
    accumulator -- fanin 0's arrival for ``j = 1`` -- and runs in wave
    ``max(wave(g, j-1), ready(fanin j)) + 1``, where ``wave(g, 0)`` is
    ``ready(fanin 0)``.  Gate ``g``'s add runs in the wave of its last
    merge, after the wave's merges; a gate with one gate fanin adds one
    wave after that fanin is ready.  ``ready(g)`` is the wave of ``g``'s
    add.

    So every merge runs in the first wave where both operands exist, each
    gate's merges run in fanin order in strictly increasing waves, and
    every arrival, the sink and every tightness see exactly the
    operations of a per-gate fold, in its order.  Merges within a wave
    are independent and write distinct rows.  A one-output circuit has
    no sink merges: its circuit delay is that output's row (``sink``).

    Tightness has one flat slot per fanin: ``g * width + j`` for merge
    ``(g, j)`` and ``n_gates * width + j`` for the sink's fanin ``j``;
    ``slots`` lists the merges' slots in the order the waves run them.
    """

    n_gates: int
    #: Largest gate fanin count (at least 1): the slot matrix's width.
    width: int
    n_outputs: int
    #: The row holding the circuit delay.
    sink: int
    waves: Tuple[Wave, ...]
    slots: np.ndarray

    @classmethod
    def build(cls, schedule: LevelSchedule, po: np.ndarray) -> "WaveSchedule":
        """Wave every merge and add of ``schedule``'s gates and the sink.

        Unrolled, the merge recurrence is a running maximum along each
        gate's fanins, ``wave(g, j) = j + max_{i <= j} (ready(fanin i) +
        lag_i)`` with ``lag_0 = 0`` and ``lag_i = 1 - i``, so a gate is
        ready at ``max_i (ready(fanin i) + lag_i) + max(fanins - 1, 1)``:
        one gather and one row maximum per rank.  The padded fanin slots
        read a sentinel ready wave below any lag.  Every merge's wave then
        follows at once from the ready waves.
        """
        n, n_out, fanin = schedule.n_gates, po.size, schedule.fanins
        width = fanin.shape[1]
        step = np.arange(max(width, n_out))
        lag = np.minimum(1 - step, 0)
        count = (fanin < n).sum(axis=1)
        after_max = np.maximum(count - 1, 1)
        ready = np.zeros(n + 1, dtype=np.intp)
        ready[n] = -2 * step.size
        for gates, fanins in schedule.levels:
            if fanins.size:
                terms = ready[fanins] + lag[: fanins.shape[1]]
                ready[gates] = np.maximum.reduce(terms, axis=1) + after_max[gates]
        columns = step[:width]
        slot_wave = np.maximum.accumulate(ready[fanin] + lag[:width], axis=1) + columns
        sink_wave = np.maximum.accumulate(ready[po] + lag[:n_out]) + step[:n_out]

        # Every merge: the gates' in gate, then fanin order, then the sink's.
        gate, column = np.nonzero((columns >= 1) & (columns < count[:, None]))
        sink_left = np.full(n_out - 1, n, dtype=np.intp)
        sink_left[:1] = po[0]
        left = np.concatenate((np.where(column == 1, fanin[gate, 0], gate), sink_left))
        right = np.concatenate((fanin[gate, column], po[1:]))
        out = np.concatenate((gate, np.full(n_out - 1, n, dtype=np.intp)))
        slot = np.concatenate((gate * width + column, n * width + step[1:n_out]))
        merge_wave = np.concatenate((slot_wave[gate, column], sink_wave[1:]))
        adders = np.flatnonzero(count)
        src = np.where(count[adders] == 1, fanin[adders, 0], adders)
        add_wave = ready[adders]

        n_waves = int(max(merge_wave.max(initial=0), add_wave.max(initial=0)))
        merge_bounds, (sorted_wave, left, right, out, slot) = _by_wave(
            merge_wave, n_waves, merge_wave, left, right, out, slot
        )
        add_bounds, (src, adders) = _by_wave(add_wave, n_waves, src, adders)
        # Each wave's gather rows: its left operands, then its right ones.
        side = np.concatenate((2 * sorted_wave, 2 * sorted_wave + 1))
        operands = np.concatenate((left, right))[np.argsort(side, kind="stable")]
        lefts, rights, outs, srcs, gates = (
            a.tolist() for a in (left, right, out, src, adders)
        )
        waves = []
        for w in range(n_waves):
            a, b = merge_bounds[w], merge_bounds[w + 1]
            c, d = add_bounds[w], add_bounds[w + 1]
            merge = add = None
            if b > a:
                merge = MergeBatch(
                    lefts[a:b], rights[a:b], outs[a:b],
                    operands[2 * a : 2 * b], out[a:b],
                )
            if d > c:
                add = AddBatch(srcs[c:d], gates[c:d], src[c:d], adders[c:d])
            waves.append((merge, add))
        return cls(
            n_gates=n,
            width=width,
            n_outputs=n_out,
            sink=n if n_out > 1 else int(po[0]),
            waves=tuple(waves),
            slots=slot,
        )

    @property
    def n_merges(self) -> int:
        """Clark merges per forward pass: one per gate fanin past the first,
        plus ``n_outputs - 1`` for the sink."""
        return self.slots.size

    @cached_property
    def n_merge_calls(self) -> int:
        """Batched merge calls per forward pass: the waves with a merge."""
        return sum(merge is not None for merge, _ in self.waves)


def _by_wave(
    wave: np.ndarray, n_waves: int, *columns: np.ndarray
) -> Tuple[List[int], List[np.ndarray]]:
    """Sort ``columns`` by ``wave`` (1 ... ``n_waves``), stably; wave
    ``w``'s entries are then ``bounds[w - 1] : bounds[w]``."""
    order = np.argsort(wave, kind="stable")
    bounds = np.searchsorted(wave[order], np.arange(1, n_waves + 2)).tolist()
    return bounds, [column[order] for column in columns]


class TimingView:
    """Structure-frozen, state-live view of a circuit for timing engines.

    The index arrays come from the circuit's
    :class:`~repro.circuit.netlist.PinIndex` with array operations, no
    per-gate name lookups: gate fanins as CSR arrays (``fanin_counts``
    per gate plus the flat ``fanin_targets``), and the consumer-pin
    incidence sorted by (driving net, the consumer's insertion rank, pin
    position) -- :meth:`Circuit.fanout_of`'s order, so :meth:`load_caps`
    sums every net's pins in :meth:`load_cap_of`'s order.  The per-gate
    lists :attr:`fanin_gates` and :attr:`consumer_pins` are split from
    those arrays on first read.

    :meth:`load_caps` and :meth:`nominal_delays` are computed at most once
    per state version: the view keeps one slot holding both for the
    version they were computed at and returns them read-only.
    """

    def __init__(self, circuit: Circuit, config: TimingConfig | None = None) -> None:
        circuit.freeze()
        self.circuit = circuit
        self.config = config or TimingConfig()
        self.library = circuit.library
        self.gates = circuit.indexed_gates()
        self.n_gates = n = len(self.gates)
        pins = circuit.pins

        # Pins on gate-driven nets (primary-input fanins contribute
        # arrival 0 and are omitted): their driver and their consumer.
        driven = pins.fanins < n
        targets = pins.fanins[driven]
        consumers = pins.owners()[driven]
        #: Per gate: its number of gate fanins, and every gate's gate
        #: fanins, gate by gate in dense order, each in pin order (CSR).
        self.fanin_counts = np.bincount(consumers, minlength=n)
        self.fanin_targets = targets

        output_gates = [
            circuit.gate_index(name) for name in circuit.outputs
            if not circuit.is_input(name)
        ]
        #: Per gate: True if the gate drives a primary output.
        self.is_primary_output = np.zeros(n, dtype=bool)
        self.is_primary_output[output_gates] = True
        if not self.is_primary_output.any():
            raise TimingError(
                f"{circuit.name}: no gate drives a primary output "
                "(all outputs are primary inputs?)"
            )

        #: The circuit's implementation state arrays (read live).
        self.state = circuit.state
        self._tables = self.library.tables
        self.cells: List[Cell] = [
            self._tables.cells[c] for c in self.state.cells.tolist()
        ]
        self._po_load = self.config.primary_output_load * self.library.c_in_unit
        self._wire_cap = self.library.tech.wire_cap_per_fanout

        #: The structure's rank schedule, shared by the batched kernels.
        self.schedule = LevelSchedule.build(pins.rank, self.fanin_counts, targets)
        # Consumer-pin incidence in load_cap_of's summation order (loaded
        # nets in dense order, each net's pins in fanout order): pin p adds
        # the input cap of gate ``_pin_gate[p]`` to the load of net
        # ``_pin_net[p]``.  The sort is stable, so one consumer's pins on
        # one net keep their pin order.
        incidence = np.lexsort((circuit.insertion_ranks()[consumers], targets))
        self._pin_net = targets[incidence]
        self._pin_gate = consumers[incidence]
        self._pin_counts = np.bincount(targets, minlength=n)
        self._pin_cells = self.state.cells[self._pin_gate]
        self._wire_loads = self._wire_cap * self._pin_counts
        # The state version the slot's loads and delays belong to (each
        # ``None`` until first asked for at that version).
        self._slot_version = -1
        self._loads: Optional[np.ndarray] = None
        self._delays: Optional[np.ndarray] = None
        #: The view's last SSTA run (``None`` before the first);
        #: :func:`~repro.timing.ssta.run_ssta` returns its result while
        #: the state and the variation model are unchanged, or when the
        #: rows it builds repeat.
        self.last_ssta: Optional["LastSSTA"] = None

    @cached_property
    def fanin_gates(self) -> List[np.ndarray]:
        """Per gate: indices of its gate fanins, in pin order."""
        return np.split(self.fanin_targets, np.cumsum(self.fanin_counts)[:-1])

    @cached_property
    def consumer_pins(self) -> List[np.ndarray]:
        """Per gate: consumer gate indices, one entry per driven pin."""
        return np.split(self._pin_gate, np.cumsum(self._pin_counts)[:-1])

    @cached_property
    def waves(self) -> WaveSchedule:
        """Canonical SSTA's merge schedule, built on first use."""
        po = np.flatnonzero(self.is_primary_output)
        return WaveSchedule.build(self.schedule, po)

    # -- state-live queries ---------------------------------------------------

    def sizes(self) -> np.ndarray:
        """Current gate sizes, dense order (a copy)."""
        return self.state.sizes.copy()

    def vths(self) -> List[VthClass]:
        """Current Vth flavours, dense order."""
        return [VTH_CLASSES[code] for code in self.state.vths.tolist()]

    def _slot(self) -> None:
        """Empty the slot when the state has moved on since it was filled."""
        version = self.state.version
        if version != self._slot_version:
            self._slot_version = version
            self._loads = self._delays = None

    def load_caps(self) -> np.ndarray:
        """Current load capacitance of every gate's output net [F], read-only.

        One ``np.bincount`` over the consumer-pin incidence: ``bincount``
        accumulates its weights sequentially in input order, and the pins
        are stored in :meth:`load_cap_of`'s order, so every entry equals
        ``load_cap_of(i)`` bit for bit.  Pin caps are gathered from the
        library's input-cap table (:meth:`LibraryTables.input_caps`), so
        a size off the grid takes :meth:`Cell.input_cap` and an
        out-of-range size raises the library's error as before.
        Computed once per state version.
        """
        self._slot()
        if self._loads is None:
            state, pins = self.state, self._pin_gate
            pin_caps = self._tables.input_caps(
                self._pin_cells, state.size_codes[pins], state.sizes[pins]
            )
            # (An empty incidence makes bincount return integer zeros;
            # adding the float wire loads yields float64 either way.)
            loads = (
                np.bincount(self._pin_net, weights=pin_caps, minlength=self.n_gates)
                + self._wire_loads
            )
            loads[self.is_primary_output] += self._po_load
            loads.flags.writeable = False
            self._loads = loads
        return self._loads

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
        """Nominal propagation delays of all gates [s], read-only.

        Elementwise ``intrinsic + slope * load`` over :meth:`load_caps`:
        the same operations as :meth:`nominal_delay_of`, entry by entry.
        Computed once per state version.
        """
        self._slot()
        if self._delays is None:
            loads = self.load_caps()
            intrinsic, slope = self.coefficients()
            delays = intrinsic + slope * loads
            delays.flags.writeable = False
            self._delays = delays
        return self._delays

    def primary_output_indices(self) -> np.ndarray:
        """Dense indices of gates driving primary outputs."""
        return np.flatnonzero(self.is_primary_output)

    def rdf_relative_area(self) -> np.ndarray:
        """Per-gate relative device area for RDF de-rating (= size, or 1s)."""
        if self.config.derate_rdf_with_size:
            return self.sizes()
        return np.ones(self.n_gates)
