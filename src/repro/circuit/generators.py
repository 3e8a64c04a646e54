"""Synthetic circuit generators.

The paper evaluates on the ISCAS85 suite.  Those netlists are public but
not shipped here (offline build), so this module provides two substitutes,
per the substitution policy in DESIGN.md:

* **structured generators** — a ripple-carry adder, an array multiplier
  (c6288 *is* a 16x16 array multiplier, so its clone is the real
  structure), and an XOR parity tree; and
* **a levelized random-DAG generator** that matches a requested
  (inputs, outputs, gates, depth) profile with an ISCAS-like cell mix and
  reconvergent fanout.

All generators are deterministic given their ``seed``.  Real ``.bench``
files drop in through :mod:`repro.circuit.bench_parser` unchanged.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import NetlistError
from ..pcg64 import Generator
from ..tech.library import Library
from .netlist import Circuit

#: ISCAS-like cell mix for the random generator: (cell, weight).
DEFAULT_CELL_MIX: Tuple[Tuple[str, float], ...] = (
    ("NAND2", 0.26),
    ("NOR2", 0.13),
    ("INV", 0.16),
    ("NAND3", 0.08),
    ("NOR3", 0.05),
    ("AND2", 0.09),
    ("OR2", 0.07),
    ("XOR2", 0.06),
    ("XNOR2", 0.03),
    ("NAND4", 0.03),
    ("AND3", 0.02),
    ("OR3", 0.01),
    ("BUF", 0.01),
)


# ---------------------------------------------------------------------------
# Structured circuits
# ---------------------------------------------------------------------------


def _full_adder(
    circuit: Circuit, prefix: str, a: str, b: str, cin: str
) -> Tuple[str, str]:
    """Add a full adder; returns ``(sum, carry)`` net names."""
    p = circuit.add_gate(f"{prefix}_p", "XOR2", [a, b]).name
    s = circuit.add_gate(f"{prefix}_s", "XOR2", [p, cin]).name
    g1 = circuit.add_gate(f"{prefix}_g1", "AND2", [a, b]).name
    g2 = circuit.add_gate(f"{prefix}_g2", "AND2", [p, cin]).name
    cout = circuit.add_gate(f"{prefix}_c", "OR2", [g1, g2]).name
    return s, cout


def _half_adder(circuit: Circuit, prefix: str, a: str, b: str) -> Tuple[str, str]:
    """Add a half adder; returns ``(sum, carry)`` net names."""
    s = circuit.add_gate(f"{prefix}_s", "XOR2", [a, b]).name
    c = circuit.add_gate(f"{prefix}_c", "AND2", [a, b]).name
    return s, c


def ripple_carry_adder(library: Library, bits: int, name: str | None = None) -> Circuit:
    """An n-bit ripple-carry adder: the canonical long-critical-path circuit."""
    if bits < 1:
        raise NetlistError(f"adder needs >= 1 bit, got {bits}")
    circuit = Circuit(name or f"rca{bits}", library)
    a = [f"a{i}" for i in range(bits)]
    b = [f"b{i}" for i in range(bits)]
    for net in (*a, *b, "cin"):
        circuit.add_input(net)
    carry = "cin"
    for i in range(bits):
        s, carry = _full_adder(circuit, f"fa{i}", a[i], b[i], carry)
        circuit.add_output(s)
    circuit.add_output(carry)
    return circuit.freeze()


def array_multiplier(library: Library, bits: int, name: str | None = None) -> Circuit:
    """An n x n array multiplier (c6288's structure at n=16).

    Built from an AND partial-product plane reduced row-by-row with
    carry-propagate rows of half/full adders — the classic array topology
    whose long diagonal carry chains made c6288 the hardest ISCAS85 timing
    benchmark.
    """
    if bits < 2:
        raise NetlistError(f"multiplier needs >= 2 bits, got {bits}")
    circuit = Circuit(name or f"mult{bits}", library)
    a = [f"a{i}" for i in range(bits)]
    b = [f"b{i}" for i in range(bits)]
    for net in (*a, *b):
        circuit.add_input(net)

    pp: List[List[str]] = []
    for j in range(bits):
        row = []
        for i in range(bits):
            net = circuit.add_gate(f"pp_{i}_{j}", "AND2", [a[i], b[j]]).name
            row.append(net)
        pp.append(row)

    # Row-by-row reduction: accumulate each partial-product row into a
    # running sum with a ripple of half/full adders.
    acc: List[str] = list(pp[0])  # weights 0..bits-1
    circuit.add_output(acc[0])  # product bit 0
    acc = acc[1:]  # weights 1..bits-1 remain in the accumulator
    for j in range(1, bits):
        row = pp[j]  # weights j..j+bits-1
        new_acc: List[str] = []
        carry: str | None = None
        for i in range(bits):
            acc_bit = acc[i] if i < len(acc) else None
            prefix = f"r{j}_{i}"
            if acc_bit is None and carry is None:
                new_acc.append(row[i])
            elif acc_bit is None:
                s, carry = _half_adder(circuit, prefix, row[i], carry)
                new_acc.append(s)
            elif carry is None:
                s, carry = _half_adder(circuit, prefix, row[i], acc_bit)
                new_acc.append(s)
            else:
                s, carry = _full_adder(circuit, prefix, row[i], acc_bit, carry)
                new_acc.append(s)
        if carry is not None:
            new_acc.append(carry)
        circuit.add_output(new_acc[0])  # product bit j
        acc = new_acc[1:]
    for net in acc:  # top product bits
        circuit.add_output(net)
    return circuit.freeze()


def parity_tree(library: Library, bits: int, name: str | None = None) -> Circuit:
    """A balanced XOR parity tree (ECC-benchmark flavour, c499/c1355-like)."""
    if bits < 2:
        raise NetlistError(f"parity tree needs >= 2 bits, got {bits}")
    circuit = Circuit(name or f"parity{bits}", library)
    level = [f"x{i}" for i in range(bits)]
    for net in level:
        circuit.add_input(net)
    depth = 0
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            net = circuit.add_gate(
                f"p{depth}_{i // 2}", "XOR2", [level[i], level[i + 1]]
            ).name
            nxt.append(net)
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
        depth += 1
    circuit.add_output(level[0])
    return circuit.freeze()


# ---------------------------------------------------------------------------
# Random levelized DAGs
# ---------------------------------------------------------------------------


def random_logic(
    library: Library,
    name: str,
    n_inputs: int,
    n_outputs: int,
    n_gates: int,
    depth: int,
    seed: int,
    cell_mix: Sequence[Tuple[str, float]] = DEFAULT_CELL_MIX,
) -> Circuit:
    """Generate a random levelized DAG with an ISCAS-like profile.

    Gates are distributed over ``depth`` levels (bell-shaped); each gate
    takes at least one fanin from the previous level (so levels are tight)
    and the rest from earlier levels with geometric locality, producing the
    reconvergent-fanout structure real netlists have.  Dangling nets become
    primary outputs; if they overshoot ``n_outputs`` they are folded
    together with XOR2 collectors (slightly raising the gate count), and if
    they undershoot, internal nets are promoted.

    Deterministic for a given ``seed``.
    """
    if min(n_inputs, n_outputs, n_gates, depth) < 1:
        raise NetlistError("all profile numbers must be >= 1")
    if depth > n_gates:
        raise NetlistError(f"depth {depth} exceeds gate count {n_gates}")
    rng = Generator(seed)
    circuit = Circuit(name, library)
    inputs = [f"i{k}" for k in range(n_inputs)]
    for net in inputs:
        circuit.add_input(net)

    cells = [c for c, _ in cell_mix]
    weights = np.array([w for _, w in cell_mix], dtype=float)
    weights /= weights.sum()
    cdf = _cdf(weights)
    arity = {c: library.cell(c).n_inputs for c in cells}

    # Bell-shaped gates-per-level allocation with at least one per level.
    positions = (np.arange(depth) + 0.5) / depth
    shape = np.exp(-(((positions - 0.45) / 0.35) ** 2)) + 0.15
    alloc = np.maximum(1, np.round(shape / shape.sum() * n_gates).astype(int))
    while alloc.sum() > n_gates:
        alloc[np.argmax(alloc)] -= 1
    while alloc.sum() < n_gates:
        alloc[np.argmin(alloc)] += 1

    levels: List[List[str]] = [list(inputs)]  # level 0 = inputs
    unused_inputs = set(inputs)
    gate_counter = 0
    for level_idx in range(1, depth + 1):
        this_level: List[str] = []
        available = sum(len(level) for level in levels)
        for _ in range(int(alloc[level_idx - 1])):
            cell = cells[bisect_right(cdf, rng.random())]
            # Small profiles cannot feed wide cells distinct nets early on;
            # clamp the draw to cells the current net pool can supply.
            if arity[cell] > available:
                narrow = [c for c in cells if arity[c] <= available]
                if not narrow:
                    raise NetlistError(
                        "circuit profile too small to supply distinct fanins"
                    )
                narrow_w = np.array(
                    [weights[cells.index(c)] for c in narrow], dtype=float
                )
                narrow_cdf = _cdf(narrow_w / narrow_w.sum())
                cell = narrow[bisect_right(narrow_cdf, rng.random())]
            k = arity[cell]
            fanins = _pick_fanins(rng, levels, k, unused_inputs)
            gate_name = f"{name}_g{gate_counter}"
            gate_counter += 1
            circuit.add_gate(gate_name, cell, fanins)
            this_level.append(gate_name)
        levels.append(this_level)

    # Wire any still-unused inputs into existing gates by swapping one
    # fanin pin.  A swap must never orphan another input (by stealing its
    # only use), so slots holding single-use primary inputs are protected
    # and the use counts are maintained as we go.
    all_gates = [circuit.gate(g) for lvl in levels[1:] for g in lvl]
    _connect_unused_inputs(all_gates, inputs, rng, name)

    # Outputs: dangling nets, folded or promoted to hit n_outputs.
    driven = {f for g in circuit.gates() for f in g.fanins}
    dangling = [g.name for g in circuit.gates() if g.name not in driven]
    collector = 0
    rng.shuffle(dangling)
    # Balanced (queue-style) pairwise reduction: consume from the front,
    # append to the back, so the fold adds only log2(excess) levels of
    # depth instead of a serial chain.
    while len(dangling) > n_outputs:
        a = dangling.pop(0)
        b = dangling.pop(0)
        net = circuit.add_gate(f"{name}_fold{collector}", "XOR2", [a, b]).name
        collector += 1
        dangling.append(net)
    if len(dangling) < n_outputs:
        internal = [g.name for g in circuit.gates() if g.name not in dangling]
        dangling.extend(
            rng.choice(internal, min(n_outputs - len(dangling), len(internal)))
        )
    for out in dangling:
        circuit.add_output(out)
    return circuit.freeze()


def pipeline_stages(
    library: Library,
    n_stages: int,
    gates_per_stage: int,
    imbalance: float = 1.0,
    seed: int = 0,
    name: str = "pipe",
) -> Tuple[Circuit, ...]:
    """Generate K random-logic stage circuits with a controlled imbalance.

    The stage gate counts ramp linearly so the last stage carries
    ``imbalance`` times the gates of the first — the knob the pipeline
    yield workload (:func:`repro.engines.analyze_pipeline`) studies: a
    balanced pipeline (1.0) loses the most yield to the statistical max
    over stages, while a skewed one is dominated by its slowest stage.
    Stage ``k`` draws from seed ``seed + k``, so the set is deterministic
    and stages are structurally independent.
    """
    if n_stages < 1:
        raise NetlistError(f"pipeline needs >= 1 stage, got {n_stages}")
    if imbalance < 1.0:
        raise NetlistError(f"imbalance must be >= 1, got {imbalance}")
    if gates_per_stage < 8:
        raise NetlistError(
            f"gates_per_stage must be >= 8, got {gates_per_stage}"
        )
    stages: List[Circuit] = []
    for k in range(n_stages):
        ramp = 1.0 if n_stages == 1 else 1.0 + (imbalance - 1.0) * k / (n_stages - 1)
        n_gates = max(8, int(round(gates_per_stage * ramp)))
        depth = max(3, int(round(n_gates ** 0.5)))
        stages.append(random_logic(
            library,
            name=f"{name}_s{k}",
            n_inputs=8,
            n_outputs=4,
            n_gates=n_gates,
            depth=depth,
            seed=seed + k,
        ))
    return tuple(stages)


def _connect_unused_inputs(gates, inputs, rng, name: str) -> None:
    """Swap gate fanins until every primary input drives at least one pin.

    Protected-slot rule: a pin currently holding a primary input with only
    one remaining use may not be swapped away, or we would just trade one
    orphan for another.  Use counts are maintained incrementally, so a
    single sweep either finishes the job or proves it impossible.
    """
    from collections import Counter

    input_set = set(inputs)
    use_count = Counter(f for g in gates for f in g.fanins)
    pending = [pi for pi in inputs if use_count.get(pi, 0) == 0]
    if not pending:
        return
    order = list(range(len(gates)))
    rng.shuffle(order)  # NumPy's ``permutation(len(gates))``
    for idx in order:
        if not pending:
            return
        gate = gates[idx]
        chosen_j = next(
            (j for j, pi in enumerate(pending) if pi not in gate.fanins), None
        )
        if chosen_j is None:
            continue
        slots = [
            s
            for s, f in enumerate(gate.fanins)
            if not (f in input_set and use_count[f] <= 1)
        ]
        if not slots:
            continue
        slot = slots[rng.integers(len(slots))]
        old = gate.fanins[slot]
        new = pending.pop(chosen_j)
        fanins = list(gate.fanins)
        fanins[slot] = new
        gate.fanins = tuple(fanins)
        use_count[old] -= 1
        use_count[new] += 1
    if pending:
        raise NetlistError(
            f"{name}: profile too small to connect all inputs "
            f"({len(pending)} left over)"
        )


def _cdf(p: np.ndarray) -> List[float]:
    """The CDF NumPy's ``choice(cells, p=p)`` searches with one ``random()``."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf.tolist()


def _pick_fanins(
    rng: Generator,
    levels: List[List[str]],
    k: int,
    unused_inputs: set,
) -> List[str]:
    """Choose ``k`` distinct fanins: one from the previous level, the rest
    from earlier levels with geometric locality; consume unused inputs
    opportunistically so every primary input ends up driven."""
    prev = levels[-1]
    chosen: List[str] = [prev[rng.integers(len(prev))]]
    guard = 0
    while len(chosen) < k and guard < 100:
        guard += 1
        if unused_inputs and rng.random() < 0.25:
            candidate = sorted(unused_inputs)[rng.integers(len(unused_inputs))]
        else:
            # Geometric preference for recent levels.
            back = min(rng.geometric(0.5), len(levels))
            pool = levels[-back]
            candidate = pool[rng.integers(len(pool))]
        if candidate not in chosen:
            chosen.append(candidate)
    if len(chosen) < k:
        # Tiny levels can starve the distinct-draw loop; pad from inputs.
        flat = [n for lvl in levels for n in lvl if n not in chosen]
        rng.shuffle(flat)
        chosen.extend(flat[: k - len(chosen)])
    if len(chosen) < k:
        raise NetlistError("circuit profile too small to supply distinct fanins")
    for c in chosen:
        unused_inputs.discard(c)
    return chosen
