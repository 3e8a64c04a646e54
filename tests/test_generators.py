"""Structured and random circuit generators."""

import hashlib
import itertools
import json

import pytest

from repro.circuit import (
    FULL_SUITE,
    array_multiplier,
    make_benchmark,
    parity_tree,
    random_logic,
    ripple_carry_adder,
)
from repro.errors import NetlistError


def simulate(circuit, input_values):
    values = dict(input_values)
    for name in circuit.topological_order():
        gate = circuit.gate(name)
        cell = circuit.cell_of(gate)
        values[name] = cell.evaluate([values[f] for f in gate.fanins])
    return values


class TestRippleCarryAdder:
    @pytest.mark.parametrize("bits", [1, 2, 4])
    def test_adds_correctly(self, lib, bits):
        adder = ripple_carry_adder(lib, bits)
        for a in range(2**bits):
            for b in range(2**bits):
                for cin in (0, 1):
                    assign = {"cin": bool(cin)}
                    for i in range(bits):
                        assign[f"a{i}"] = bool((a >> i) & 1)
                        assign[f"b{i}"] = bool((b >> i) & 1)
                    v = simulate(adder, assign)
                    total = 0
                    for i, out in enumerate(adder.outputs):
                        total |= int(v[out]) << i
                    assert total == a + b + cin, (a, b, cin)

    def test_structure(self, lib):
        adder = ripple_carry_adder(lib, 8)
        assert len(adder.inputs) == 17
        assert len(adder.outputs) == 9
        assert adder.n_gates == 8 * 5

    def test_rejects_zero_bits(self, lib):
        with pytest.raises(NetlistError):
            ripple_carry_adder(lib, 0)


class TestArrayMultiplier:
    @pytest.mark.parametrize("bits", [2, 3, 4])
    def test_multiplies_correctly(self, lib, bits):
        mult = array_multiplier(lib, bits)
        assert len(mult.outputs) == 2 * bits
        for a in range(2**bits):
            for b in range(2**bits):
                assign = {}
                for i in range(bits):
                    assign[f"a{i}"] = bool((a >> i) & 1)
                    assign[f"b{i}"] = bool((b >> i) & 1)
                v = simulate(mult, assign)
                product = 0
                for i, out in enumerate(mult.outputs):
                    product |= int(v[out]) << i
                assert product == a * b, (a, b)

    def test_rejects_single_bit(self, lib):
        with pytest.raises(NetlistError):
            array_multiplier(lib, 1)

    def test_c6288_scale(self, lib):
        mult = array_multiplier(lib, 16)
        assert 1000 < mult.n_gates < 3000
        assert mult.depth > 50  # long diagonal carry chains


class TestParityTree:
    @pytest.mark.parametrize("bits", [2, 3, 5, 8])
    def test_parity_correct(self, lib, bits):
        tree = parity_tree(lib, bits)
        for bits_vec in itertools.product((False, True), repeat=bits):
            assign = {f"x{i}": v for i, v in enumerate(bits_vec)}
            v = simulate(tree, assign)
            assert v[tree.outputs[0]] == (sum(bits_vec) % 2 == 1)

    def test_balanced_depth(self, lib):
        tree = parity_tree(lib, 16)
        assert tree.depth == 4


class TestRandomLogic:
    def test_deterministic_per_seed(self, lib):
        a = random_logic(lib, "r", 10, 4, 60, 8, seed=5)
        b = random_logic(lib, "r", 10, 4, 60, 8, seed=5)
        assert [g.cell_name for g in a.gates()] == [g.cell_name for g in b.gates()]
        assert [g.fanins for g in a.gates()] == [g.fanins for g in b.gates()]

    def test_different_seed_differs(self, lib):
        a = random_logic(lib, "r", 10, 4, 60, 8, seed=5)
        b = random_logic(lib, "r", 10, 4, 60, 8, seed=6)
        assert [g.fanins for g in a.gates()] != [g.fanins for g in b.gates()]

    def test_profile_respected(self, lib):
        c = random_logic(lib, "r", 20, 6, 150, 12, seed=1)
        assert len(c.inputs) == 20
        assert len(c.outputs) == 6
        # Folding adds a few gates; stay within 25%.
        assert 150 <= c.n_gates <= 190
        assert 12 <= c.depth <= 12 + 6

    def test_all_inputs_used(self, lib):
        c = random_logic(lib, "r", 25, 5, 120, 10, seed=3)
        for pi in c.inputs:
            assert c.fanout_of(pi), f"input {pi} unused"

    def test_no_dangling_internal_gates(self, lib):
        c = random_logic(lib, "r", 12, 4, 80, 9, seed=7)
        outputs = set(c.outputs)
        for gate in c.gates():
            assert c.fanout_of(gate.name) or gate.name in outputs

    def test_invalid_profile_rejected(self, lib):
        with pytest.raises(NetlistError):
            random_logic(lib, "r", 0, 4, 60, 8, seed=5)
        with pytest.raises(NetlistError):
            random_logic(lib, "r", 10, 4, 5, 8, seed=5)  # depth > gates


def structure_digest(circuit) -> str:
    """sha256 of the inputs, the outputs, every gate's ``(name, cell,
    fanins)`` in insertion order and the topological order."""
    gates = [[g.name, g.cell_name, list(g.fanins)] for g in circuit.gates()]
    text = json.dumps([
        list(circuit.inputs), list(circuit.outputs), gates,
        circuit.topological_order(),
    ])
    return hashlib.sha256(text.encode()).hexdigest()


#: Every generated suite circuit, digested at the commit before the clone
#: builder left ``numpy.random``; any change to a draw moves its digest.
SUITE_DIGESTS = {
    "c432": "64d3904443cb024c6e869911cc9b5db7b87fd3c39c310a31bc9eb2fb6dd54340",
    "c499": "72c3448f2461aa57694a47fcecaf74faa6d042595d5f65fd72656b75a926a025",
    "c880": "7d66769bdbd0d196d75957f6fde3850ed2cf785579808f1782740d9853528ab4",
    "c1355": "f889e8717740c624b0c3890de02464624893fc20297a8977cc5e2b489793644b",
    "c1908": "2fcd353b4f91c9c67ccc2e1290fa37f1fb986ac8d8d72e9f20ba714369a4ac8c",
    "c2670": "8423b25a510d92d06aebff1f76dd05585ba2550a907093ed17d7dbab0611f266",
    "c3540": "587148fb53359de8334f3d6ebe4c59221627c612cee71f799192c47a1c4df1e7",
    "c5315": "b1c56e67b8a6ca1a606a4faceca0067a769116f36ca284caa92dc8e66a44f616",
    "c6288": "a2a7b7724b7e8f395da9803fa78f4cfe8340fa07bcab29599a70044199f4b25d",
    "c7552": "96ede17c55c0ade8ea81da75bd196aa6f7eb4619c72865820ed8f04d976fe438",
}

NAND4_INV = (("NAND4", 1.0), ("INV", 1.0))

#: Tiny profiles that between them run every branch of ``random_logic``,
#: ``_pick_fanins`` and ``_connect_unused_inputs`` but two that cannot
#: run: a gate already holding every pending input (a pending input
#: drives no pin) and the raise after the pad (the narrow-cell clamp
#: leaves the pad enough nets).  ``(inputs, outputs, gates, depth)``, the
#: keyword arguments and the digest.
TINY_DIGESTS = {
    # One input: the narrow-cell clamp, then XOR folds to one output.
    "clamp-fold": ((1, 1, 2, 1), dict(seed=0),
                   "8847dc72456eef8ba7402003e582f489d8f71796b81efafab83078921797683c"),
    # 100 draws find no fourth distinct fanin; the pad fills it.
    "pad": ((2, 1, 3, 3), dict(seed=24677, cell_mix=NAND4_INV),
            "8559149d02208a63cec3bbc0cfa17ce2242a959b3b4d4ca470652680e2b63715"),
    # Fewer dangling nets than outputs: internal nets are promoted.
    "promote": ((3, 8, 8, 4), dict(seed=0),
                "78573b459574461358a33a3a792960c4a6578931864d437e06e8478731c18d48"),
    # Unused inputs swapped into gates, some gates with no free slot.
    "swap": ((20, 3, 16, 4), dict(seed=0),
             "ba5c17a7177c3e344bc720988fee23997fed14ac0d4e370ef6fb1387ea91220d"),
    # The rounded level allocation falls short and is topped up.
    "undershoot": ((3, 2, 11, 4), dict(seed=0),
                   "765b893b7dec2010bb2ed77597e59ebc74fd74bd58f9fed999c20b56ed11bb04"),
}


class TestGeneratedCircuitsArePinned:
    @pytest.mark.parametrize("name", FULL_SUITE)
    def test_suite_clone(self, lib, name):
        assert structure_digest(make_benchmark(name, lib)) == SUITE_DIGESTS[name]

    @pytest.mark.parametrize("label", sorted(TINY_DIGESTS))
    def test_tiny_profile(self, lib, label):
        profile, kwargs, digest = TINY_DIGESTS[label]
        circuit = random_logic(lib, "t", *profile, **kwargs)
        assert structure_digest(circuit) == digest

    @pytest.mark.parametrize("profile, kwargs, message", [
        ((5, 1, 2, 1), dict(seed=1), "too small to connect all inputs"),
        ((1, 1, 2, 1), dict(seed=0, cell_mix=(("NAND2", 1.0),)),
         "too small to supply distinct fanins"),
    ], ids=["unconnected-inputs", "no-narrow-cell"])
    def test_too_small_profile_rejected(self, lib, profile, kwargs, message):
        with pytest.raises(NetlistError, match=message):
            random_logic(lib, "t", *profile, **kwargs)
