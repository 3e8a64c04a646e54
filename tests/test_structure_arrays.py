"""The pin index and the array set-up built from it vs the per-gate code.

A frozen circuit holds its pin structure as arrays (``Circuit.pins``),
and the timing view's index lists, the level schedule, the signal
probabilities and the leakage weights are built from them with array
operations.  Each must equal the name-walking code in
``structure_reference`` bit for bit -- values, dtypes and order -- on
every bundled circuit, seeded clones, and the structures where the array
forms are easiest to get wrong: a lone gate, one net on both pins of a
gate, a primary input that is also an output, and gates added out of
topological order with one net driving pins of different input caps.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import Circuit, benchmark_spec, make_benchmark, random_logic
from repro.circuit.benchmarks import benchmark_names
from repro.power import (
    GateLeakage,
    gate_input_probabilities,
    gate_leakage_currents,
    net_probabilities,
    pin_probabilities,
    signal_probabilities,
)
from repro.tech import VthClass
from repro.timing import TimingView
from repro.timing.graph import LevelSchedule, WaveSchedule

from . import leakage_reference as leak_ref
from . import structure_reference as ref
from .test_leakage_kernels import every_cell_circuit
from .test_timing_kernels import assert_bitwise, schedule_fields

N_STATES = 3
#: Uneven input probabilities, the bounds included.
UNEVEN = (0.0, 1.0, 0.3, 0.77, 0.5, 0.013)


def _clone(lib, profile: str, seed: int) -> Circuit:
    p = benchmark_spec(profile)
    return random_logic(
        lib, name=f"{profile}_s{seed}", n_inputs=p.n_inputs,
        n_outputs=p.n_outputs, n_gates=p.n_gates, depth=p.depth, seed=seed,
    )


def _small(lib, name, inputs, gates, outputs) -> Circuit:
    c = Circuit(name, lib)
    for net in inputs:
        c.add_input(net)
    for gate, cell, fanins in gates:
        c.add_gate(gate, cell, fanins)
    for net in outputs:
        c.add_output(net)
    return c


SMALL = {
    "one_gate": (["a"], [("y", "INV", ["a"])], ["y"]),
    "nand_of_one_input": (["a", "u"], [("y", "NAND2", ["a", "a"])], ["y"]),
    "nand_of_one_gate": (
        ["a"], [("g", "INV", ["a"]), ("y", "NAND2", ["g", "g"])], ["y"],
    ),
    "input_as_output": (
        ["a", "b"], [("g", "NAND2", ["a", "b"]), ("h", "NOR2", ["g", "b"])],
        ["h", "a", "g"],
    ),
    # Consumers are added before the gates they read, and ``a1`` drives
    # NAND3 (twice), NOR2, XOR2, AND2 and XNOR2 pins.
    "out_of_order": (
        ["x", "y", "z"],
        [
            ("o1", "NAND3", ["a1", "b1", "a1"]),
            ("o2", "NOR2", ["a1", "y"]),
            ("b1", "XOR2", ["a1", "z"]),
            ("a1", "INV", ["x"]),
            ("o3", "AND2", ["b1", "a1"]),
            ("o4", "XNOR2", ["a1", "o1"]),
            ("o5", "OR3", ["o2", "z", "b1"]),
        ],
        ["o1", "o3", "o4", "o5", "o2"],
    ),
}


def _randomize(circuit: Circuit, rng: np.random.Generator) -> None:
    sizes = np.asarray(circuit.library.sizes)
    for gate in circuit.indexed_gates():
        gate.size = float(rng.choice(sizes))
        gate.vth = VthClass.HIGH if rng.random() < 0.5 else VthClass.LOW
        gate.length_bias = float(rng.choice([0.0, 2e-9]))


def _uneven(circuit: Circuit) -> dict:
    return {pi: UNEVEN[i % len(UNEVEN)] for i, pi in enumerate(circuit.inputs)}


def assert_arrays_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_lists_equal(actual, expected) -> None:
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert_arrays_equal(a, e)


def assert_schedules_equal(actual: LevelSchedule, expected: LevelSchedule) -> None:
    assert actual.n_gates == expected.n_gates
    assert actual.offsets == expected.offsets
    assert_arrays_equal(actual.fanins, expected.fanins)
    for pairs_a, pairs_e in ((actual.levels, expected.levels),
                             (actual.backward, expected.backward)):
        assert len(pairs_a) == len(pairs_e)
        for (a0, a1), (e0, e1) in zip(pairs_a, pairs_e):
            assert_arrays_equal(a0, e0)
            assert_arrays_equal(a1, e1)


def assert_probabilities_equal(actual: dict, expected: dict) -> None:
    assert list(actual) == list(expected)
    assert_bitwise(list(actual.values()), list(expected.values()))


def assert_pin_index(circuit: Circuit) -> None:
    """The pin index holds every gate's fanins by net id and rank = level - 1."""
    pins = circuit.pins
    gates = circuit.indexed_gates()
    names = [g.name for g in gates] + list(circuit.inputs)
    assert (pins.n_gates, pins.n_inputs) == (len(gates), len(circuit.inputs))
    assert pins.arity.tolist() == [len(g.fanins) for g in gates]
    assert [names[i] for i in pins.fanins.tolist()] == [
        f for g in gates for f in g.fanins
    ]
    assert pins.rank.tolist() == [circuit.level_of(g.name) - 1 for g in gates]


def assert_structure(circuit: Circuit, input_probs=None) -> None:
    """Every structure array against the per-gate reference, bitwise."""
    view = TimingView(circuit)
    want = ref.view_structure(circuit)
    assert_pin_index(circuit)

    assert_lists_equal(view.fanin_gates, want.fanin_gates)
    assert_lists_equal(view.consumer_pins, want.consumer_pins)
    assert_arrays_equal(view.is_primary_output, want.is_primary_output)
    assert len(view.cells) == len(want.cells)
    assert all(a is e for a, e in zip(view.cells, want.cells))
    assert_arrays_equal(view._pin_net, want.pin_net)
    assert_arrays_equal(view._pin_gate, want.pin_gate)
    pins = circuit.pins
    has_input_fanin = np.zeros(view.n_gates, dtype=bool)
    has_input_fanin[pins.owners()[pins.fanins >= pins.n_gates]] = True
    assert_arrays_equal(has_input_fanin, want.has_input_fanin)

    schedule = ref.level_schedule(want.fanin_gates)
    assert_schedules_equal(view.schedule, schedule)
    po = np.flatnonzero(want.is_primary_output)
    assert schedule_fields(view.waves) == schedule_fields(WaveSchedule.build(schedule, po))

    probs = signal_probabilities(circuit, input_probs)
    expected = ref.signal_probabilities(circuit, input_probs)
    assert_probabilities_equal(probs, expected)
    n = view.n_gates
    values = net_probabilities(circuit, input_probs)
    assert_bitwise(values, list(expected.values())[-n:] + list(expected.values())[:-n])

    gate_probs = gate_input_probabilities(circuit, expected)
    weights = ref.gate_leakage_weights(circuit, gate_probs)
    leakage = GateLeakage(circuit, pin_probabilities(circuit, probs))
    assert_arrays_equal(leakage._weights, weights)
    if input_probs is None:
        assert_arrays_equal(GateLeakage(circuit, pin_probabilities(circuit))._weights, weights)

    rng = np.random.default_rng(circuit.n_gates)
    wire = circuit.library.tech.wire_cap_per_fanout
    po_load = view.config.primary_output_load * circuit.library.c_in_unit
    for _ in range(N_STATES):
        _randomize(circuit, rng)
        # load_cap_of's sum over the reference consumer lists.
        loads = []
        for i in range(n):
            total = 0.0
            for pin in want.consumer_pins[i]:
                total += want.cells[pin].input_cap(view.gates[pin].size)
            total += wire * len(want.consumer_pins[i])
            if want.is_primary_output[i]:
                total += po_load
            loads.append(total)
        assert_bitwise(view.load_caps(), loads)
        currents = leak_ref.gate_leakage_currents(circuit, expected)
        assert_bitwise(leakage.currents(), currents)
        assert_bitwise(gate_leakage_currents(circuit, probs), currents)
        if input_probs is None:
            assert_bitwise(gate_leakage_currents(circuit), currents)


class TestBundledCircuits:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_structure_matches_the_per_gate_code(self, name, lib):
        assert_structure(make_benchmark(name, lib))

    @pytest.mark.parametrize("name", ("c17", "c432", "c880"))
    def test_uneven_input_probabilities(self, name, lib):
        circuit = make_benchmark(name, lib)
        assert_structure(circuit, _uneven(circuit))


class TestClones:
    @pytest.mark.parametrize("profile,seed", [("c432", 3), ("c432", 91), ("c3540", 5)])
    def test_seeded_clone(self, profile, seed, lib):
        assert_structure(_clone(lib, profile, seed))


class TestEdgeStructures:
    def test_every_cell_at_uneven_probabilities(self, lib):
        circuit = every_cell_circuit(lib)
        assert_structure(circuit)
        assert_structure(circuit, _uneven(circuit))
        probs = {"a": 0.0, "b": 1.0, "c": 1.0, "d": 0.0}
        assert_structure(circuit, probs)
        assert_probabilities_equal(
            signal_probabilities(circuit, default_input_prob=1.0),
            ref.signal_probabilities(circuit, default_input_prob=1.0),
        )
        negative_zero = {"a": -0.0, "b": 1.0, "c": -0.0, "d": 0.25}
        assert_probabilities_equal(
            signal_probabilities(circuit, negative_zero),
            ref.signal_probabilities(circuit, negative_zero),
        )

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_small_structure(self, name, lib):
        circuit = _small(lib, name, *SMALL[name])
        assert_structure(circuit)
        assert_structure(circuit, _uneven(circuit))

    def test_one_net_drives_pins_of_different_caps(self, lib):
        circuit = _small(lib, "out_of_order", *SMALL["out_of_order"])
        view = TimingView(circuit)
        a1 = circuit.gate_index("a1")
        consumers = view.consumer_pins[a1].tolist()
        # Fanout order: consumers by insertion, each consumer's pins in order.
        names = [view.gates[i].name for i in consumers]
        assert names == circuit.fanout_of("a1") == ["o1", "o1", "o2", "b1", "o3", "o4"]
        assert consumers != sorted(consumers)  # not dense order here
        assert len({view.cells[i].input_cap(1.0) for i in consumers}) >= 3

    def test_empty_schedule(self):
        empty = np.zeros(0, dtype=np.intp)
        assert_schedules_equal(
            LevelSchedule.build(empty, empty, empty), ref.level_schedule(())
        )
