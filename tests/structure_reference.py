"""Per-gate reference implementations of the structure set-up (test oracle).

These are the loops the timing view, the level schedule, the signal
probabilities and the leakage weights ran before the circuit's pin index
and the array kernels replaced them, kept verbatim in operation order so
the array versions can be held to them bit for bit:

* :func:`view_structure` walks the gates by net name for the view's
  fanin lists, input-fanin flags, consumer lists (``Circuit.fanout_of``
  order), primary-output mask, cells and consumer-pin incidence;
* :func:`level_schedule` ranks gates one at a time and packs the
  :class:`~repro.timing.graph.LevelSchedule` around that loop;
* :func:`signal_probabilities` folds gate by gate through
  ``Cell.output_probability``;
* :func:`gate_leakage_weights` builds the state weights from the
  name-keyed tuples of
  :func:`~repro.power.probability.gate_input_probabilities`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.circuit.netlist import Circuit
from repro.errors import PowerError
from repro.tech.library import Cell
from repro.timing.graph import LevelSchedule


@dataclass
class ViewStructure:
    """The index lists a timing view held, built by name."""

    fanin_gates: List[np.ndarray]
    has_input_fanin: np.ndarray
    consumer_pins: List[np.ndarray]
    is_primary_output: np.ndarray
    cells: List[Cell]
    pin_net: np.ndarray
    pin_gate: np.ndarray


def view_structure(circuit: Circuit) -> ViewStructure:
    """The view's index lists, one gate and one net name at a time."""
    circuit.freeze()
    gates = circuit.indexed_gates()
    n_gates = len(gates)

    # Dense gate index by net name; every other net is a primary input.
    index = {gate.name: i for i, gate in enumerate(gates)}
    fanin_gates = [
        np.array([index[f] for f in gate.fanins if f in index], dtype=int)
        for gate in gates
    ]
    has_input_fanin = np.array(
        [any(f not in index for f in gate.fanins) for gate in gates],
        dtype=bool,
    )
    consumer_pins = [
        np.array([index[c] for c in circuit.fanout_of(gate.name)], dtype=int)
        for gate in gates
    ]
    output_nets = set(circuit.outputs)
    is_primary_output = np.array([g.name in output_nets for g in gates], dtype=bool)
    cells = [circuit.cell_of(g) for g in gates]
    pin_counts = np.array([pins.size for pins in consumer_pins], dtype=np.intp)
    pin_net = np.repeat(np.arange(n_gates), pin_counts)
    pin_gate = np.concatenate(consumer_pins).astype(np.intp)
    return ViewStructure(
        fanin_gates, has_input_fanin, consumer_pins, is_primary_output, cells,
        pin_net, pin_gate,
    )


def level_schedule(fanin_gates: Sequence[np.ndarray]) -> LevelSchedule:
    """Rank every gate and pack per-rank index/fanin arrays.

    The rank recurrence (one past the deepest fanin) runs gate by gate;
    the packing around it is vectorized.
    """
    n = len(fanin_gates)
    if n == 0:
        return LevelSchedule(
            n_gates=0, levels=(), offsets=(), backward=(),
            fanins=np.zeros((0, 1), dtype=np.intp),
        )
    fanin_lists = [fanins.tolist() for fanins in fanin_gates]
    rank_of = [0] * n
    for i, fanins in enumerate(fanin_lists):
        if fanins:
            rank_of[i] = max([rank_of[f] for f in fanins]) + 1
    rank = np.array(rank_of, dtype=np.intp)
    count = np.array([len(fanins) for fanins in fanin_lists], dtype=np.intp)
    n_levels = int(rank.max()) + 1

    order = np.argsort(rank, kind="stable")
    bounds = np.searchsorted(rank[order], np.arange(n_levels + 1))
    sizes = np.diff(bounds)
    row = np.empty(n, dtype=np.intp)
    row[order] = np.arange(n) - np.repeat(bounds[:-1], sizes)
    widths = np.maximum.reduceat(count[order], bounds[:-1])
    offsets = np.concatenate(([0], np.cumsum(sizes * widths)[:-1]))

    consumer = np.repeat(np.arange(n), count)
    position = np.arange(consumer.size) - np.repeat(np.cumsum(count) - count, count)
    target = np.concatenate(fanin_gates).astype(np.intp)
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

    sweep = np.lexsort((position, -consumer))
    sweep = sweep[np.argsort(rank[target[sweep]], kind="stable")]
    edge_bounds = np.concatenate(
        ([0], np.cumsum(np.bincount(rank[target], minlength=n_levels)))
    )
    backward = tuple(
        (slot[sweep[a:b]], target[sweep[a:b]])
        for a, b in zip(edge_bounds[:-1], edge_bounds[1:])
    )
    return LevelSchedule(
        n_gates=n,
        levels=tuple(levels),
        offsets=tuple(int(o) for o in offsets),
        backward=backward,
        fanins=fanins,
    )


def signal_probabilities(
    circuit: Circuit,
    input_probs: Optional[Mapping[str, float]] = None,
    default_input_prob: float = 0.5,
) -> Dict[str, float]:
    """P(net = 1) for every net, one ``Cell.output_probability`` per gate."""
    if not 0.0 <= default_input_prob <= 1.0:
        raise PowerError(f"probability out of [0,1]: {default_input_prob}")
    circuit.freeze()
    probs: Dict[str, float] = {}
    for pi in circuit.inputs:
        p = default_input_prob
        if input_probs is not None and pi in input_probs:
            p = float(input_probs[pi])
        if not 0.0 <= p <= 1.0:
            raise PowerError(f"probability for input {pi!r} out of [0,1]: {p}")
        probs[pi] = p
    if input_probs is not None:
        unknown = set(input_probs) - set(circuit.inputs)
        if unknown:
            raise PowerError(f"probabilities given for unknown inputs: {sorted(unknown)}")
    for name in circuit.topological_order():
        gate = circuit.gate(name)
        cell = circuit.cell_of(gate)
        probs[name] = cell.output_probability([probs[f] for f in gate.fanins])
    return probs


def gate_leakage_weights(
    circuit: Circuit, gate_probs: Mapping[str, Sequence[float]]
) -> np.ndarray:
    """Every gate's input-state weights, from name-keyed fanin tuples."""
    fanin_probs = [list(gate_probs[g.name]) for g in circuit.indexed_gates()]
    width = max(map(len, fanin_probs))
    pins = np.array([p + [0.0] * (width - len(p)) for p in fanin_probs])
    n_states = 1 << width
    state_bits = np.arange(n_states)
    weights = np.ones((len(fanin_probs), n_states))
    for bit in range(width):
        p = pins[:, bit : bit + 1]
        weights *= np.where((state_bits >> bit) & 1 == 1, p, 1.0 - p)
    return weights
