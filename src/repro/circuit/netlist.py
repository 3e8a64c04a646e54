"""Gate-level netlist data structures.

A :class:`Circuit` is a DAG of library-cell instances between primary
inputs and primary outputs — the combinational-core abstraction that both
the ISCAS85 benchmarks and the optimizers operate on.

Design decisions
----------------
* Gates reference their fanins **by net name** (a net is named after the
  gate or primary input driving it); the circuit resolves names to indices
  once, on :meth:`Circuit.freeze`, after which topological order, levels,
  and fanout maps are cached, and the pin structure is held as arrays
  (:class:`PinIndex`) that the timing and power layers build from.
* The *implementation state* (drive ``size``, :class:`VthClass` and
  length bias) is mutable per gate — this is what the optimizers search
  over — while the *structure* is frozen.  Freezing moves the state into
  one dense-order array per field (:class:`StateArrays`), which the
  gate attributes then read and write, so batched kernels gather state
  without walking gate objects.  :meth:`Circuit.assignment` /
  :meth:`Circuit.apply_assignment` snapshot and restore that state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import NetlistError
from ..tech.library import VTH_CLASSES, VTH_CODES, Cell, Library
from ..tech.technology import VthClass


class StateArrays:
    """A frozen circuit's implementation state, one dense-order array per field.

    ``sizes``, ``vths`` (codes into :data:`~repro.tech.library.VTH_CLASSES`)
    and ``length_biases`` are the state.  ``size_codes`` (the size's grid
    position, ``-1`` off the grid; see :meth:`Library.size_code`) follows
    ``sizes`` on every write through :meth:`set_size`, and ``cells``
    (library cell ids) is structure.  The public arrays are read-only
    views: every write goes through :meth:`set_size`, :meth:`set_vth` or
    :meth:`set_length_bias` (which the gate attributes call), and each of
    them bumps :attr:`version`.  Equal versions therefore mean an
    unchanged state, so a cache keyed by the version needs no comparison
    of the arrays; the converse does not hold (a write and its revert
    move the version but restore the state).
    """

    __slots__ = (
        "cells", "sizes", "size_codes", "vths", "length_biases", "version",
        "_sizes", "_size_codes", "_vths", "_length_biases", "_library",
    )

    def __init__(self, library: Library, gates: Sequence["Gate"]) -> None:
        self._library = library
        self.cells = _read_only(
            np.array([library.cell_ids[g.cell_name] for g in gates], dtype=np.intp)
        )
        self._sizes = np.array([g._size for g in gates], dtype=float)
        self._size_codes = np.array(
            [library.size_code(g._size) for g in gates], dtype=np.intp
        )
        self._vths = np.array([VTH_CODES[g._vth] for g in gates], dtype=np.intp)
        self._length_biases = np.array([g._length_bias for g in gates], dtype=float)
        self.sizes = _read_only(self._sizes.view())
        self.size_codes = _read_only(self._size_codes.view())
        self.vths = _read_only(self._vths.view())
        self.length_biases = _read_only(self._length_biases.view())
        #: Number of writes so far: equal versions mean an unchanged state.
        self.version = 0

    def set_size(self, index: int, size: float) -> None:
        """Set one gate's drive size."""
        self._sizes[index] = size
        self._size_codes[index] = self._library.size_code(size)
        self.version += 1

    def set_vth(self, index: int, vth: VthClass) -> None:
        """Set one gate's Vth flavour."""
        self._vths[index] = VTH_CODES[vth]
        self.version += 1

    def set_length_bias(self, index: int, bias: float) -> None:
        """Set one gate's length bias [m]."""
        self._length_biases[index] = bias
        self.version += 1


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class PinIndex:
    """A frozen circuit's pin structure, as dense arrays.

    Nets are numbered by *net id*: the gates ``0 ... n_gates - 1`` in
    dense (topological) order, then the primary inputs ``n_gates ...
    n_gates + n_inputs - 1`` in declaration order.  ``arity`` holds each
    gate's fanin count and ``fanins`` every gate's fanin net ids, gate by
    gate in dense order, each gate's in pin order.  ``rank`` is each
    gate's logic level minus one: 0 for a gate fed only by primary
    inputs, else one past its deepest gate fanin's rank.
    """

    __slots__ = ("n_gates", "n_inputs", "arity", "fanins", "rank")

    def __init__(
        self, n_inputs: int, arity: np.ndarray, fanins: np.ndarray, rank: np.ndarray
    ) -> None:
        self.n_gates = arity.size
        self.n_inputs = n_inputs
        self.arity = arity
        self.fanins = fanins
        self.rank = rank

    def owners(self) -> np.ndarray:
        """The gate each entry of :attr:`fanins` belongs to."""
        return np.repeat(np.arange(self.n_gates), self.arity)

    def padded(self, fill: int | np.ndarray) -> np.ndarray:
        """Fanin net ids as an ``(n_gates, width)`` matrix, each row padded
        to the widest gate's arity with ``fill`` (a scalar, or one value
        per row as an ``(n_gates, 1)`` column)."""
        arity = self.arity
        used = np.arange(arity.max()) < arity[:, None]
        matrix = np.full(used.shape, fill, dtype=np.intp)
        matrix[used] = self.fanins
        return matrix


class Gate:
    """One library-cell instance.

    Attributes
    ----------
    name:
        Unique instance name; also the name of the net it drives.
    cell_name:
        Library cell, e.g. ``"NAND2"``.
    fanins:
        Ordered driving-net names (primary inputs or other gates).
    size:
        Drive size (multiple of the unit inverter) — implementation state.
    vth:
        Threshold flavour — implementation state.
    length_bias:
        Deliberate channel-length increase [m] (gate-length biasing):
        slows the gate slightly, cuts its leakage exponentially —
        implementation state, 0 unless the optimizer uses the knob.

    Until its circuit is frozen a gate holds its own state; from then on
    ``size``, ``vth`` and ``length_bias`` read and write the circuit's
    :class:`StateArrays` (reads return a ``float`` / :class:`VthClass`).
    """

    __slots__ = ("name", "cell_name", "fanins", "_size", "_vth", "_length_bias",
                 "_state", "_index")

    def __init__(
        self,
        name: str,
        cell_name: str,
        fanins: Tuple[str, ...],
        size: float = 1.0,
        vth: VthClass = VthClass.LOW,
        length_bias: float = 0.0,
    ) -> None:
        if not name:
            raise NetlistError("gate name must be non-empty")
        if not fanins:
            raise NetlistError(f"gate {name!r} has no fanins")
        self.name = name
        self.cell_name = cell_name
        self.fanins = fanins
        self._size = size
        self._vth = vth
        self._length_bias = length_bias
        self._state: Optional[StateArrays] = None
        self._index = -1

    @property
    def size(self) -> float:
        if self._state is None:
            return self._size
        return self._state.sizes.item(self._index)

    @size.setter
    def size(self, value: float) -> None:
        if self._state is None:
            self._size = value
        else:
            self._state.set_size(self._index, value)

    @property
    def vth(self) -> VthClass:
        if self._state is None:
            return self._vth
        return VTH_CLASSES[self._state.vths.item(self._index)]

    @vth.setter
    def vth(self, value: VthClass) -> None:
        if self._state is None:
            self._vth = value
        else:
            self._state.set_vth(self._index, value)

    @property
    def length_bias(self) -> float:
        if self._state is None:
            return self._length_bias
        return self._state.length_biases.item(self._index)

    @length_bias.setter
    def length_bias(self, value: float) -> None:
        if self._state is None:
            self._length_bias = value
        else:
            self._state.set_length_bias(self._index, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Gate(name={self.name!r}, cell_name={self.cell_name!r}, "
            f"fanins={self.fanins!r}, size={self.size!r}, vth={self.vth!r}, "
            f"length_bias={self.length_bias!r})"
        )


@dataclass(frozen=True)
class GateAssignment:
    """Immutable snapshot of the implementation state of a whole circuit.

    ``length_biases`` defaults to all-zero for snapshots created before
    the gate-length-biasing knob existed (and for hand-built snapshots).
    """

    sizes: Tuple[float, ...]
    vths: Tuple[VthClass, ...]
    length_biases: Tuple[float, ...] = ()

    def __len__(self) -> int:
        return len(self.sizes)

    def bias_of(self, index: int) -> float:
        """Length bias of gate ``index`` (0 when not recorded)."""
        return self.length_biases[index] if self.length_biases else 0.0


class Circuit:
    """A combinational gate-level circuit bound to a cell library.

    Build by calling :meth:`add_input`, :meth:`add_gate`, and
    :meth:`add_output`, then :meth:`freeze` (idempotent; also called by the
    first structural query).  Structural queries raise on unfrozen,
    invalid circuits rather than returning partial answers.
    """

    def __init__(self, name: str, library: Library) -> None:
        if not name:
            raise NetlistError("circuit name must be non-empty")
        self.name = name
        self.library = library
        self._inputs: List[str] = []
        self._outputs: List[str] = []
        self._gates: Dict[str, Gate] = {}
        self._frozen = False
        # caches built by freeze()
        self._topo: List[str] = []
        self._levels: Dict[str, int] = {}
        self._fanouts: Dict[str, List[str]] = {}
        self._gate_index: Dict[str, int] = {}
        self._state: Optional[StateArrays] = None
        self._pins: Optional[PinIndex] = None
        self._indexed: List[Gate] = []
        self._insertion_order = np.empty(0, dtype=np.intp)

    # -- construction ---------------------------------------------------------

    def add_input(self, name: str) -> None:
        """Declare a primary input net."""
        self._ensure_mutable()
        if not name:
            raise NetlistError("input name must be non-empty")
        if name in self._inputs or name in self._gates:
            raise NetlistError(f"duplicate net name {name!r}")
        self._inputs.append(name)

    def add_gate(
        self,
        name: str,
        cell_name: str,
        fanins: Sequence[str],
        size: float = 1.0,
        vth: VthClass = VthClass.LOW,
    ) -> Gate:
        """Instantiate a library cell driving net ``name``."""
        self._ensure_mutable()
        if name in self._gates or name in self._inputs:
            raise NetlistError(f"duplicate net name {name!r}")
        cell = self.library.cell(cell_name)  # raises LibraryError if unknown
        if len(fanins) != cell.n_inputs:
            raise NetlistError(
                f"gate {name!r}: cell {cell_name} takes {cell.n_inputs} "
                f"inputs, got {len(fanins)}"
            )
        gate = Gate(name=name, cell_name=cell_name, fanins=tuple(fanins), size=size, vth=vth)
        self._gates[name] = gate
        return gate

    def add_output(self, net: str) -> None:
        """Declare a primary output (must name an existing net by freeze time)."""
        self._ensure_mutable()
        if net in self._outputs:
            raise NetlistError(f"duplicate primary output {net!r}")
        self._outputs.append(net)

    def freeze(self) -> "Circuit":
        """Validate structure and build the cached analyses.  Idempotent."""
        if self._frozen:
            return self
        if not self._inputs:
            raise NetlistError(f"{self.name}: circuit has no primary inputs")
        if not self._outputs:
            raise NetlistError(f"{self.name}: circuit has no primary outputs")
        if not self._gates:
            raise NetlistError(f"{self.name}: circuit has no gates")
        known = set(self._inputs) | set(self._gates)
        for gate in self._gates.values():
            for fanin in gate.fanins:
                if fanin not in known:
                    raise NetlistError(
                        f"{self.name}: gate {gate.name!r} references "
                        f"undefined net {fanin!r}"
                    )
        for out in self._outputs:
            if out not in known:
                raise NetlistError(f"{self.name}: undefined primary output {out!r}")
        self._build_topology()
        gates = [self._gates[name] for name in self._topo]
        self._indexed = gates
        self._state = StateArrays(self.library, gates)
        for index, gate in enumerate(gates):
            gate._state, gate._index = self._state, index
        self._insertion_order = np.array(
            [self._gate_index[name] for name in self._gates], dtype=np.intp
        )
        self._pins = self._pin_index(gates)
        self._frozen = True
        return self

    # -- structural queries ------------------------------------------------------

    @property
    def inputs(self) -> Tuple[str, ...]:
        """Primary input net names, in declaration order."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> Tuple[str, ...]:
        """Primary output net names, in declaration order."""
        return tuple(self._outputs)

    @property
    def n_gates(self) -> int:
        """Number of gate instances."""
        return len(self._gates)

    def gate(self, name: str) -> Gate:
        """Look up a gate by instance/net name."""
        try:
            return self._gates[name]
        except KeyError:
            raise NetlistError(f"{self.name}: no gate named {name!r}") from None

    def gates(self) -> Iterable[Gate]:
        """All gates, in insertion order."""
        return self._gates.values()

    def has_net(self, name: str) -> bool:
        """Whether ``name`` is a known net (input or gate output)."""
        return name in self._inputs or name in self._gates

    def is_input(self, name: str) -> bool:
        """Whether ``name`` is a primary input."""
        return name in self._inputs

    def topological_order(self) -> List[str]:
        """Gate names in topological (fanin-before-fanout) order."""
        self.freeze()
        return list(self._topo)

    def level_of(self, name: str) -> int:
        """Logic level: 0 for primary inputs, 1 + max(fanin levels) for gates."""
        self.freeze()
        try:
            return self._levels[name]
        except KeyError:
            raise NetlistError(f"{self.name}: no net named {name!r}") from None

    @property
    def depth(self) -> int:
        """Maximum logic level over all nets."""
        self.freeze()
        return max(self._levels.values())

    def fanout_of(self, name: str) -> List[str]:
        """Names of gates whose fanin includes net ``name``.

        A gate using the net on several pins appears once per pin, because
        each pin loads the net separately.
        """
        self.freeze()
        return list(self._fanouts.get(name, []))

    def gate_index(self, name: str) -> int:
        """Dense index of a gate (stable, topological order)."""
        self.freeze()
        try:
            return self._gate_index[name]
        except KeyError:
            raise NetlistError(f"{self.name}: no gate named {name!r}") from None

    def indexed_gates(self) -> List[Gate]:
        """Gates ordered by their dense (topological) index."""
        self.freeze()
        return list(self._indexed)

    @property
    def pins(self) -> PinIndex:
        """The pin structure as dense arrays (freezes the circuit)."""
        self.freeze()
        return self._pins  # type: ignore[return-value]

    def insertion_ranks(self) -> np.ndarray:
        """Each gate's position in insertion order, by dense index."""
        self.freeze()
        return np.argsort(self._insertion_order)

    def cell_of(self, gate: Gate) -> Cell:
        """The library cell a gate instantiates."""
        return self.library.cell(gate.cell_name)

    # -- implementation state -------------------------------------------------------

    @property
    def state(self) -> StateArrays:
        """The implementation state as dense-order arrays (freezes the circuit)."""
        self.freeze()
        return self._state  # type: ignore[return-value]

    def assignment(self) -> GateAssignment:
        """Snapshot of all gate sizes and Vth flavours (topological order)."""
        state = self.state
        return GateAssignment(
            sizes=tuple(state.sizes.tolist()),
            vths=tuple(VTH_CLASSES[code] for code in state.vths.tolist()),
            length_biases=tuple(state.length_biases.tolist()),
        )

    def apply_assignment(self, assignment: GateAssignment) -> None:
        """Restore a snapshot taken by :meth:`assignment`."""
        self.freeze()
        gates = self.indexed_gates()
        if len(assignment) != len(gates):
            raise NetlistError(
                f"assignment for {len(assignment)} gates applied to a "
                f"circuit with {len(gates)}"
            )
        for i, (gate, size, vth) in enumerate(
            zip(gates, assignment.sizes, assignment.vths)
        ):
            gate.size = size
            gate.vth = vth
            gate.length_bias = assignment.bias_of(i)

    def set_uniform(
        self,
        size: float | None = None,
        vth: VthClass | None = None,
        length_bias: float | None = None,
    ) -> None:
        """Set every gate's size, Vth flavour, and/or length bias at once."""
        for gate in self._gates.values():
            if size is not None:
                gate.size = size
            if vth is not None:
                gate.vth = vth
            if length_bias is not None:
                gate.length_bias = length_bias

    def count_vth(self) -> Dict[VthClass, int]:
        """Gate counts per Vth flavour."""
        counts = np.bincount(self.state.vths, minlength=len(VTH_CLASSES))
        return {vth: int(counts[code]) for code, vth in enumerate(VTH_CLASSES)}

    def total_device_width(self) -> float:
        """Sum of gate sizes — the area proxy used by sizing experiments.

        Summed one gate at a time in insertion order, as the gates were
        added.
        """
        return sum(self.state.sizes[self._insertion_order].tolist())

    # -- summaries -----------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Structural summary used by the characteristics table (T1)."""
        self.freeze()
        cell_histogram: Dict[str, int] = {}
        for gate in self._gates.values():
            cell_histogram[gate.cell_name] = cell_histogram.get(gate.cell_name, 0) + 1
        return {
            "name": self.name,
            "inputs": len(self._inputs),
            "outputs": len(self._outputs),
            "gates": len(self._gates),
            "depth": self.depth,
            "cells": dict(sorted(cell_histogram.items())),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Circuit({self.name!r}, inputs={len(self._inputs)}, "
            f"gates={len(self._gates)}, outputs={len(self._outputs)})"
        )

    # -- internals ------------------------------------------------------------------

    def _ensure_mutable(self) -> None:
        if self._frozen:
            raise NetlistError(f"{self.name}: circuit is frozen; structure is immutable")

    def _build_topology(self) -> None:
        # Kahn's algorithm; detects combinational loops.
        in_degree: Dict[str, int] = {name: 0 for name in self._gates}
        consumers: Dict[str, List[str]] = {}
        for gate in self._gates.values():
            for fanin in gate.fanins:
                consumers.setdefault(fanin, []).append(gate.name)
                if fanin in self._gates:
                    in_degree[gate.name] += 1

        levels: Dict[str, int] = {name: 0 for name in self._inputs}
        ready = [name for name, deg in in_degree.items() if deg == 0]
        # Deterministic order: FIFO seeded in gate-insertion order.
        order: List[str] = []
        insertion_rank = {name: i for i, name in enumerate(self._gates)}
        queue = sorted(ready, key=insertion_rank.__getitem__)
        head = 0
        while head < len(queue):
            name = queue[head]
            head += 1
            order.append(name)
            gate = self._gates[name]
            levels[name] = 1 + max(levels[f] for f in gate.fanins)
            for consumer in consumers.get(name, []):
                in_degree[consumer] -= 1
                if in_degree[consumer] == 0:
                    queue.append(consumer)
        if len(order) != len(self._gates):
            stuck = sorted(set(self._gates) - set(order))[:5]
            raise NetlistError(
                f"{self.name}: combinational loop detected involving {stuck}..."
            )
        self._topo = order
        self._levels = levels
        self._fanouts = consumers
        self._gate_index = {name: i for i, name in enumerate(order)}

    def _pin_index(self, gates: List[Gate]) -> PinIndex:
        n = len(gates)
        net_id = dict(self._gate_index)
        net_id.update((name, n + i) for i, name in enumerate(self._inputs))
        arity = np.fromiter((len(g.fanins) for g in gates), dtype=np.intp, count=n)
        fanins = np.fromiter(
            (net_id[f] for g in gates for f in g.fanins),
            dtype=np.intp, count=int(arity.sum()),
        )
        # level = 1 + max fanin level, and a primary input's level is 0.
        levels = self._levels
        rank = np.fromiter((levels[name] for name in self._topo), dtype=np.intp, count=n)
        return PinIndex(len(self._inputs), arity, fanins, rank - 1)
