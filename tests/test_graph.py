"""TimingView: index structures and live-state reads."""

import numpy as np
import pytest

from repro.circuit import Circuit
from repro.errors import TimingError
from repro.timing import TimingConfig, TimingView


@pytest.fixture
def diamond(lib):
    c = Circuit("diamond", lib)
    c.add_input("a")
    c.add_gate("top", "INV", ["a"])
    c.add_gate("l", "INV", ["top"])
    c.add_gate("r", "BUF", ["top"])
    c.add_gate("join", "NAND2", ["l", "r"])
    c.add_output("join")
    return c


class TestStructure:
    def test_fanin_indices(self, diamond):
        view = TimingView(diamond)
        i_join = diamond.gate_index("join")
        fanins = set(int(f) for f in view.fanin_gates[i_join])
        assert fanins == {diamond.gate_index("l"), diamond.gate_index("r")}

    def test_input_fanins_omitted(self, diamond):
        view = TimingView(diamond)
        i_top = diamond.gate_index("top")
        assert view.fanin_gates[i_top].size == 0
        pins = diamond.pins
        has_input_fanin = np.zeros(view.n_gates, dtype=bool)
        has_input_fanin[pins.owners()[pins.fanins >= pins.n_gates]] = True
        assert has_input_fanin.tolist() == [i == i_top for i in range(view.n_gates)]

    def test_consumer_pins(self, diamond):
        view = TimingView(diamond)
        i_top = diamond.gate_index("top")
        consumers = set(int(c) for c in view.consumer_pins[i_top])
        assert consumers == {diamond.gate_index("l"), diamond.gate_index("r")}

    def test_primary_output_flags(self, diamond):
        view = TimingView(diamond)
        po = view.primary_output_indices()
        assert list(po) == [diamond.gate_index("join")]

    def test_output_must_be_driven_by_gate(self, lib):
        c = Circuit("bad", lib)
        c.add_input("a")
        c.add_gate("g", "INV", ["a"])
        c.add_output("a")  # PO is a primary input
        with pytest.raises(TimingError, match="no gate drives"):
            TimingView(c)


class TestLiveState:
    def test_loads_follow_consumer_sizes(self, diamond):
        view = TimingView(diamond)
        i_top = diamond.gate_index("top")
        before = view.load_cap_of(i_top)
        diamond.gate("l").size = 4.0
        after = view.load_cap_of(i_top)
        assert after > before

    def test_po_load_configurable(self, diamond, lib):
        heavy = TimingView(diamond, TimingConfig(primary_output_load=10.0))
        light = TimingView(diamond, TimingConfig(primary_output_load=1.0))
        i_join = diamond.gate_index("join")
        delta = heavy.load_cap_of(i_join) - light.load_cap_of(i_join)
        assert delta == pytest.approx(9.0 * lib.c_in_unit)

    def test_delay_coefficient_cache_consistent(self, diamond):
        view = TimingView(diamond)
        i = diamond.gate_index("join")
        a = view.delay_coefficients(i)
        b = view.delay_coefficients(i)
        assert a == b
        diamond.gate("join").size = 2.0
        c = view.delay_coefficients(i)
        assert c != a  # new (cell, size, vth) key

    def test_rdf_relative_area_modes(self, diamond):
        diamond.set_uniform(size=4.0)
        derated = TimingView(diamond, TimingConfig(derate_rdf_with_size=True))
        flat = TimingView(diamond, TimingConfig(derate_rdf_with_size=False))
        assert np.allclose(derated.rdf_relative_area(), 4.0)
        assert np.allclose(flat.rdf_relative_area(), 1.0)

    def test_sizes_and_vths_live(self, diamond):
        from repro.tech import VthClass

        view = TimingView(diamond)
        diamond.set_uniform(size=3.0, vth=VthClass.HIGH)
        assert np.allclose(view.sizes(), 3.0)
        assert all(v is VthClass.HIGH for v in view.vths())
