"""Dynamic (switching) power model."""

import numpy as np
import pytest

from repro.errors import PowerError
from repro.power import analyze_dynamic_power, switching_activities
from repro.timing import TimingView


class TestDynamicPower:
    def test_nonnegative_per_gate(self, c432):
        # Deep logic cones can saturate a net's probability to exactly 0/1
        # under the independence model, giving zero activity — so gates are
        # non-negative, and the circuit total strictly positive.
        dp = analyze_dynamic_power(c432)
        assert dp.powers.shape == (c432.n_gates,)
        assert np.all(dp.powers >= 0)
        assert dp.total > 0

    def test_linear_in_frequency(self, c432):
        slow = analyze_dynamic_power(c432, frequency=1e8)
        fast = analyze_dynamic_power(c432, frequency=1e9)
        assert fast.total == pytest.approx(10 * slow.total, rel=1e-9)

    def test_rejects_bad_frequency(self, c432):
        with pytest.raises(PowerError):
            analyze_dynamic_power(c432, frequency=0.0)

    def test_upsizing_increases_dynamic_power(self, c432):
        base = analyze_dynamic_power(c432).total
        c432.set_uniform(size=4.0)
        upsized = analyze_dynamic_power(c432).total
        assert upsized > 2 * base

    def test_formula_on_single_gate(self, lib, c17):
        view = TimingView(c17)
        acts = switching_activities(c17)
        dp = analyze_dynamic_power(view, frequency=1e9, activities=acts)
        idx = 0
        gate = view.gates[idx]
        cap = view.load_cap_of(idx) + view.cells[idx].parasitic_cap(gate.size)
        vdd = lib.tech.vdd
        expected = 0.5 * acts[gate.name] * cap * vdd * vdd * 1e9
        assert dp.powers[idx] == pytest.approx(expected)

    def test_custom_activities_respected(self, c17):
        zeroed = {net: 0.0 for net in
                  list(c17.inputs) + [g.name for g in c17.gates()]}
        dp = analyze_dynamic_power(c17, activities=zeroed)
        assert dp.total == 0.0

    def test_vth_does_not_change_dynamic_power(self, c432):
        from repro.tech import VthClass

        base = analyze_dynamic_power(c432).total
        c432.set_uniform(vth=VthClass.HIGH)
        after = analyze_dynamic_power(c432).total
        assert after == pytest.approx(base, rel=1e-12)


class TestGatheredLoads:
    """Dynamic power reads the batched loads; snapshots reuse probabilities."""

    def test_bitwise_per_gate_formula_at_random_states(self, lib, c432):
        view = TimingView(c432)
        acts = switching_activities(c432)
        vdd = lib.tech.vdd
        rng = np.random.default_rng(4)
        for _ in range(6):
            for gate in c432.indexed_gates():
                gate.size = float(rng.choice(lib.sizes))
            dp = analyze_dynamic_power(view, activities=acts)
            expected = []
            for i, gate in enumerate(view.gates):
                cap = view.load_cap_of(i) + view.cells[i].parasitic_cap(gate.size)
                expected.append(0.5 * acts[gate.name] * cap * vdd * vdd * 1e9)
            assert dp.powers.tobytes() == np.array(expected).tobytes()

    def test_snapshot_given_probs_computes_no_probabilities(self, c432, spec, monkeypatch):
        import sys

        from repro.circuit import build_variation_model
        from repro.core import OptimizerConfig, metric_models, snapshot_metrics
        from repro.power import signal_probabilities
        from repro.tech import slow_corner

        probs = signal_probabilities(c432)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return signal_probabilities(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro.") and (
                getattr(module, "signal_probabilities", None) is signal_probabilities
            ):
                monkeypatch.setattr(module, "signal_probabilities", counting)
        view = TimingView(c432)
        varmodel = build_variation_model(c432, spec)
        corner = slow_corner(spec, 3.0)
        models = metric_models(c432, varmodel, probs)
        for _ in range(2):
            snapshot_metrics(view, models, 1e-9, corner, OptimizerConfig())
        assert calls == []
        metric_models(c432, varmodel)
        assert calls  # the check sees the calls it is meant to exclude


class TestArrayActivities:
    """Parasitic caps come from the library's table and activities from
    one gather by name, bit for bit the per-gate formula over
    ``switching_activities`` and ``Cell.parasitic_cap``."""

    @staticmethod
    def per_gate(view, acts, frequency=1e9):
        vdd = view.library.tech.vdd
        expected = []
        for i, gate in enumerate(view.gates):
            cap = view.load_cap_of(i) + view.cells[i].parasitic_cap(gate.size)
            expected.append(0.5 * acts[gate.name] * cap * vdd * vdd * frequency)
        return np.array(expected)

    @pytest.mark.parametrize("name", ["c17", "c432", "c880"])
    def test_default_activities_bitwise(self, lib, name):
        from repro.circuit import make_benchmark

        circuit = make_benchmark(name, lib)
        view = TimingView(circuit)
        acts = switching_activities(circuit)
        rng = np.random.default_rng(len(name))
        for step in range(4):
            for gate in circuit.indexed_gates():
                size = float(rng.choice(lib.sizes[:-1]))
                # Every other state puts some sizes a hair off the grid.
                gate.size = size * (1.0 + 1e-12) if step % 2 and rng.random() < 0.2 else size
            for frequency in (1e9, 3e8):
                want = self.per_gate(view, acts, frequency).tobytes()
                assert analyze_dynamic_power(view, frequency).powers.tobytes() == want
                got = analyze_dynamic_power(view, frequency, activities=acts)
                assert got.powers.tobytes() == want

    def test_out_of_range_size_raises(self, lib, c17):
        from repro.errors import LibraryError

        view = TimingView(c17)
        view.gates[0].size = lib.sizes[-1] * 2.0
        with pytest.raises(LibraryError):
            analyze_dynamic_power(view)
