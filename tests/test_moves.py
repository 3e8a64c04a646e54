"""Optimization moves: enumeration, application, and local estimates."""

import pytest

from repro.core import (
    apply_move,
    candidate_moves,
    fanin_cap_delta,
    leakage_gain,
    own_delay_cost,
    revert_move,
)
from repro.core.moves import Move
from repro.power import (
    GateLeakage,
    gate_input_probabilities,
    pin_probabilities,
    signal_probabilities,
)
from repro.tech import VthClass
from repro.timing import TimingView


@pytest.fixture
def view(c17):
    return TimingView(c17)


@pytest.fixture
def gate_probs(c17):
    probs = signal_probabilities(c17)
    return gate_input_probabilities(c17, probs)


@pytest.fixture
def leakage(c17):
    return GateLeakage(c17, pin_probabilities(c17))


class TestEnumeration:
    def test_initial_state_offers_vth_swaps_only_down_blocked(self, view):
        # All gates at size 1 (grid bottom) and LOW vth: only vth moves.
        moves = list(candidate_moves(view, enable_vth=True, enable_sizing=True))
        assert all(m.kind == "vth" for m in moves)
        assert len(moves) == view.n_gates

    def test_upsized_gates_offer_downsizes(self, view, c17):
        c17.set_uniform(size=4.0)
        moves = list(candidate_moves(view, enable_vth=True, enable_sizing=True))
        kinds = {m.kind for m in moves}
        assert kinds == {"vth", "size"}
        sizes = [m for m in moves if m.kind == "size"]
        assert all(m.new_size == 3.0 for m in sizes)

    def test_high_vth_gates_not_reswapped(self, view, c17):
        c17.set_uniform(vth=VthClass.HIGH, size=2.0)
        moves = list(candidate_moves(view, enable_vth=True, enable_sizing=True))
        assert all(m.kind == "size" for m in moves)

    def test_families_can_be_disabled(self, view, c17):
        c17.set_uniform(size=2.0)
        only_vth = list(candidate_moves(view, enable_vth=True, enable_sizing=False))
        only_size = list(candidate_moves(view, enable_vth=False, enable_sizing=True))
        assert all(m.kind == "vth" for m in only_vth)
        assert all(m.kind == "size" for m in only_size)


class TestApplyRevert:
    def test_vth_round_trip(self, view):
        move = Move(index=0, kind="vth", new_vth=VthClass.HIGH)
        old = apply_move(view, move)
        assert view.gates[0].vth is VthClass.HIGH
        revert_move(view, move, old)
        assert view.gates[0].vth is VthClass.LOW

    def test_size_round_trip(self, view, c17):
        c17.set_uniform(size=4.0)
        move = Move(index=2, kind="size", new_size=3.0)
        old = apply_move(view, move)
        assert view.gates[2].size == 3.0
        revert_move(view, move, old)
        assert view.gates[2].size == 4.0

    def test_keys_distinct(self):
        a = Move(index=1, kind="vth", new_vth=VthClass.HIGH)
        b = Move(index=1, kind="size", new_size=2.0)
        assert a.key() != b.key()


class TestLocalEstimates:
    def test_vth_swap_slows_gate(self, view):
        move = Move(index=0, kind="vth", new_vth=VthClass.HIGH)
        cost = own_delay_cost(view, move, view.load_cap_of(0))
        assert cost > 0
        assert fanin_cap_delta(view, move) == 0.0

    def test_vth_cost_matches_measured_delay(self, view):
        move = Move(index=0, kind="vth", new_vth=VthClass.HIGH)
        est = own_delay_cost(view, move, view.load_cap_of(0))
        before = view.nominal_delay_of(0)
        old = apply_move(view, move)
        after = view.nominal_delay_of(0)
        revert_move(view, move, old)
        assert est == pytest.approx(after - before, rel=1e-9)

    def test_downsize_slows_gate_but_relieves_fanins(self, view, c17):
        c17.set_uniform(size=4.0)
        move = Move(index=5, kind="size", new_size=3.0)
        assert own_delay_cost(view, move, view.load_cap_of(5)) > 0
        assert fanin_cap_delta(view, move) < 0

    def test_estimates_restore_state(self, view):
        move = Move(index=0, kind="vth", new_vth=VthClass.HIGH)
        own_delay_cost(view, move, view.load_cap_of(0))
        assert view.gates[0].vth is VthClass.LOW


class TestLeakageGain:
    def test_vth_swap_gain_positive_and_large(self, view, gate_probs, leakage):
        move = Move(index=0, kind="vth", new_vth=VthClass.HIGH)
        gain = leakage_gain(view, move, leakage)
        before = view.cells[0].mean_leakage(
            1.0, VthClass.LOW, gate_probs[view.gates[0].name]
        )
        assert gain > 0.8 * before  # high-Vth removes >80% of the leakage

    def test_downsize_gain_proportional(self, view, c17, gate_probs, leakage):
        c17.set_uniform(size=4.0)
        move = Move(index=0, kind="size", new_size=2.0)
        gain = leakage_gain(view, move, leakage)
        before = view.cells[0].mean_leakage(
            4.0, VthClass.LOW, gate_probs[view.gates[0].name]
        )
        assert gain == pytest.approx(before / 2, rel=1e-9)
