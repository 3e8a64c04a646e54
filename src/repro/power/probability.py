"""Signal-probability propagation.

State-dependent leakage and switching activity both need, per net, the
probability of being logic 1.  This module propagates primary-input
probabilities (default 0.5) through the circuit topologically using each
cell's Boolean structure, under the classic input-independence
approximation (exact on trees; approximate through reconvergent fanout,
which is fine for power *weighting*).

The propagation is levelized over the circuit's pin index: rank by rank,
one batch of products and one of XOR folds, every gate reproducing the
scalar :func:`~repro.tech.library.output_probability` bit for bit.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Mapping, Optional

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import LibraryError, PowerError
from ..tech.library import CellFunction

# How the kernel evaluates each cell function: a product of the pins'
# ``p`` or of their ``1 - p`` (AND and OR families), or the pairwise XOR
# fold; ``kind`` orders a rank's rows -- plain products, complemented
# products, XOR, XNOR -- and odd kinds complement the result.  INV is a
# one-input NAND and BUF a one-input AND, bit for bit: ``1 * p`` is
# exactly ``p``.
_PLAIN, _COMPLEMENTED, _XOR_FOLD, _XNOR_FOLD = range(4)
_KIND = {
    CellFunction.BUF: _PLAIN,
    CellFunction.AND: _PLAIN,
    CellFunction.NOR: _PLAIN,
    CellFunction.INV: _COMPLEMENTED,
    CellFunction.NAND: _COMPLEMENTED,
    CellFunction.OR: _COMPLEMENTED,
    CellFunction.XOR: _XOR_FOLD,
    CellFunction.XNOR: _XNOR_FOLD,
}
#: Functions whose product runs over the pins' ``1 - p``.
_PRODUCT_OF_Q = (CellFunction.OR, CellFunction.NOR)


def net_probabilities(
    circuit: Circuit,
    input_probs: Optional[Mapping[str, float]] = None,
    default_input_prob: float = 0.5,
) -> np.ndarray:
    """P(net = 1) by net id: the gates in dense order, then the primary
    inputs (see :class:`~repro.circuit.netlist.PinIndex`).

    Arguments and checks are :func:`signal_probabilities`'.  Every gate
    is :func:`~repro.tech.library.output_probability` of its pins, bit
    for bit: products run column by column from the first pin, as
    ``math.prod`` multiplies, and pins past a gate's arity are padded
    with a net reading 1.0 in the ``p`` product and 0.0 in the ``1 - p``
    product and the XOR fold, where they multiply or add exactly.
    """
    if not 0.0 <= default_input_prob <= 1.0:
        raise PowerError(f"probability out of [0,1]: {default_input_prob}")
    circuit.freeze()
    inputs = circuit.inputs
    input_values = []
    for pi in inputs:
        p = default_input_prob
        if input_probs is not None and pi in input_probs:
            p = float(input_probs[pi])
        if not 0.0 <= p <= 1.0:
            raise PowerError(f"probability for input {pi!r} out of [0,1]: {p}")
        input_values.append(p)
    if input_probs is not None:
        unknown = set(input_probs) - set(inputs)
        if unknown:
            raise PowerError(f"probabilities given for unknown inputs: {sorted(unknown)}")

    pins = circuit.pins
    n, zero = pins.n_gates, pins.n_gates + pins.n_inputs
    # ``values`` holds every net's p by net id, then two pad nets (``zero``
    # reads 0.0, ``zero + 1`` 1.0), then the same nets' ``1 - p`` from
    # ``shift`` on, so a product of ``1 - p`` is a gather too.
    shift = zero + 2
    values = np.zeros(2 * shift)
    values[n:zero] = input_values
    values[zero + 1] = 1.0
    values[shift:] = 1.0 - values[:shift]
    functions = [cell.function for cell in circuit.library.tables.cells]
    cells = circuit.state.cells
    kind = np.array([_KIND[f] for f in functions])[cells]
    of_q = np.array([f in _PRODUCT_OF_Q for f in functions])[cells]
    of_p = (kind < _XOR_FOLD) & ~of_q
    matrix = pins.padded(np.where(of_p, zero + 1, zero)[:, None])
    matrix += (shift * of_q)[:, None]

    # One batch per rank and family (products, XOR folds), rows sorted
    # by kind, so a batch's complemented rows are its tail from ``splits``.
    key = pins.rank * 4 + kind
    order = np.argsort(key, kind="stable")
    key = key[order]
    batch = key >> 1
    starts = np.flatnonzero(np.concatenate(([True], batch[1:] != batch[:-1])))
    widths = np.maximum.reduceat(pins.arity[order], starts).tolist()
    splits = np.searchsorted(key, 2 * batch[starts] + 1).tolist()
    folds = (batch[starts] & 1).tolist()
    bounds = starts.tolist() + [n]
    rows, complements = matrix[order], order + shift
    for a, b, c, width, fold in zip(bounds, bounds[1:], splits, widths, folds):
        x = values[rows[a:b, :width]]
        if fold:
            # ``0.0 * (1 - p0) + 1.0 * p0`` is ``p0 + 0.0`` for p0 in [0, 1],
            # and one minus that is ``1 - p0``.
            q = 1.0 - x
            out = x[:, 0] + 0.0
            for j in range(1, width):
                p = x[:, j]
                out = out * q[:, j] + (q[:, 0] if j == 1 else 1.0 - out) * p
        else:
            out = x[:, 0]
            for j in range(1, width):
                out = out * x[:, j]
        if b > c:
            out[c - a :] = 1.0 - out[c - a :]
        values[order[a:b]] = out
        values[complements[a:b]] = 1.0 - out

    # The scalar fold's range check on every gate's pins, in one pass.
    pin_values = values[pins.fanins]
    bad = np.flatnonzero(~((pin_values >= 0.0) & (pin_values <= 1.0)))
    if bad.size:
        raise LibraryError(f"signal probability out of [0,1]: {pin_values[bad[0]].item()}")
    return values[:zero]


def signal_probabilities(
    circuit: Circuit,
    input_probs: Optional[Mapping[str, float]] = None,
    default_input_prob: float = 0.5,
) -> Dict[str, float]:
    """P(net = 1) for every net in the circuit.

    Parameters
    ----------
    circuit:
        The circuit (frozen automatically).
    input_probs:
        Optional per-primary-input probabilities; unlisted inputs use
        ``default_input_prob``.

    Keys are the primary inputs, then the gates in dense order; values
    are :func:`net_probabilities`'.
    """
    values = net_probabilities(circuit, input_probs, default_input_prob)
    n = circuit.n_gates
    names = chain(circuit.inputs, circuit.topological_order())
    return dict(zip(names, values[n:].tolist() + values[:n].tolist()))


def pin_probabilities(
    circuit: Circuit, probs: Optional[Mapping[str, float]] = None
) -> np.ndarray:
    """Every gate's fanin probabilities as an ``(n_gates, width)`` matrix,
    dense order, rows zero-padded to the widest gate's arity.

    ``probs`` are net signal probabilities by name (as
    :func:`signal_probabilities` returns); by default they are
    :func:`net_probabilities`, gathered without names.
    """
    if probs is None:
        values = net_probabilities(circuit)
    else:
        names = chain(circuit.topological_order(), circuit.inputs)
        values = np.array([probs[name] for name in names], dtype=float)
    pins = circuit.pins
    return np.append(values, 0.0)[pins.padded(values.size)]


def gate_input_probabilities(
    circuit: Circuit, probs: Mapping[str, float]
) -> Dict[str, tuple]:
    """Per gate, the tuple of its fanin probabilities (for leakage tables)."""
    return {
        g.name: tuple(probs[f] for f in g.fanins) for g in circuit.gates()
    }


def switching_activities(
    circuit: Circuit,
    probs: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Per-net toggle probability per clock cycle.

    Temporal-independence model: ``a = 2 p (1 - p)`` — the standard
    zero-delay activity estimate used for early dynamic-power numbers.
    """
    if probs is None:
        probs = signal_probabilities(circuit)
    return {net: 2.0 * p * (1.0 - p) for net, p in probs.items()}
