"""Circuit-owned state arrays and the gathers that read them, vs the scalar paths.

A frozen circuit keeps every gate's size, Vth code and length bias in
dense-order arrays that the gate attributes read and write.  Random walks
drive every mutation path (direct attribute writes, ``apply_move`` /
``revert_move``, ``apply_assignment``, ``set_uniform``, initial sizing,
the annealer) and check after each step that the arrays hold what was
written and that loads, nominal delays, delay canonicals and leakage
currents gathered from them equal the per-gate definitions bit for bit.
Candidate scoring is held to the per-move loop in ``moves_reference``.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.circuit import Circuit, GateAssignment, build_variation_model, make_benchmark
from repro.core import OptimizerConfig, minimize_delay
from repro.core.annealing import AnnealConfig, optimize_annealing
from repro.core.deterministic import DeterministicStrategy
from repro.core.engine import ConstraintStrategy, GreedyEngine
from repro.core.moves import apply_move, candidate_moves, revert_move
from repro.core.statistical import StatisticalStrategy
from repro.power import (
    GateLeakage,
    gate_input_probabilities,
    gate_leakage_currents,
    leakage_lognormal_sum,
    pin_probabilities,
    signal_probabilities,
)
from repro.tech import VthClass, slow_corner
from repro.tech.library import VTH_CLASSES
from repro.timing import TimingView, run_sta
from repro.timing.ssta import gate_delay_canonicals

from . import leakage_reference as leak_ref
from . import moves_reference as moves_ref
from . import timing_reference as timing_ref
from .test_leakage_kernels import every_cell_circuit
from .test_timing_kernels import assert_bitwise, assert_canonicals_equal

WALK_STEPS = 200
WALK_SEEDS = (0, 1, 2)
#: Length biases on and off the 2 nm step grid.
BIASES = (0.0, 2e-9, 4e-9, 3.3e-9, 7.1e-9)
#: Sizes inside the library range but off its grid.
OFF_GRID_SIZES = (1.5, 2.5, 5.0)


def _circuit(name: str, lib) -> Circuit:
    return every_cell_circuit(lib) if name == "every_cell" else make_benchmark(name, lib)


def _randomize(circuit: Circuit, rng: np.random.Generator) -> None:
    sizes = circuit.library.sizes
    for gate in circuit.indexed_gates():
        gate.size = float(rng.choice(sizes))
        gate.vth = VthClass.HIGH if rng.random() < 0.5 else VthClass.LOW
        gate.length_bias = float(rng.choice(BIASES))


class Walk:
    """A random walk over implementation states with a shadow copy of the
    state the test wrote, checked against the arrays after every step."""

    def __init__(self, circuit: Circuit, spec, seed: int) -> None:
        self.circuit = circuit
        self.spec = spec
        self.varmodel = build_variation_model(circuit, spec)
        self.view = TimingView(circuit)
        self.lib = circuit.library
        self.rng = np.random.default_rng(seed)
        self.probs = signal_probabilities(circuit)
        self.leakage = GateLeakage(circuit, pin_probabilities(circuit, self.probs))
        self.shadow = self._read()
        self.applied = []  # (move, old state token, shadow before)
        self.snapshots = [circuit.assignment()]
        self.paths = set()

    def _read(self):
        gates = self.view.gates
        return [[g.size, g.vth, g.length_bias] for g in gates]

    def _on_grid(self) -> bool:
        return bool((self.circuit.state.size_codes >= 0).all())

    def step(self) -> None:
        rng, gates = self.rng, self.view.gates
        i = int(rng.integers(len(gates)))
        path = str(rng.choice([
            "size", "size", "vth", "bias", "move", "move", "revert",
            "assignment", "uniform", "sizing", "anneal",
        ]))
        if path == "size":
            pool = self.lib.sizes + OFF_GRID_SIZES
            gates[i].size = self.shadow[i][0] = float(rng.choice(pool))
        elif path == "vth":
            gates[i].vth = self.shadow[i][1] = VTH_CLASSES[int(rng.integers(2))]
        elif path == "bias":
            gates[i].length_bias = self.shadow[i][2] = float(rng.choice(BIASES))
        elif path == "move":
            moves = list(candidate_moves(
                self.view, enable_vth=True, enable_sizing=self._on_grid(),
                enable_lbias=True,
            ))
            if not moves:
                return
            move = moves[int(rng.integers(len(moves)))]
            before = [list(row) for row in self.shadow]
            old = apply_move(self.view, move)
            field = {"size": 0, "vth": 1, "lbias": 2}[move.kind]
            self.shadow[move.index][field] = (move.new_size, move.new_vth, move.new_lbias)[field]
            self.applied.append((move, old, before))
        elif path == "revert":
            if not self.applied:
                return
            move, old, before = self.applied.pop()
            revert_move(self.view, move, old)
            self.shadow[move.index] = before[move.index]
        elif path == "assignment":
            snapshot = self.snapshots[int(rng.integers(len(self.snapshots)))]
            self.circuit.apply_assignment(snapshot)
            self.shadow = [
                [s, v, snapshot.bias_of(k)]
                for k, (s, v) in enumerate(zip(snapshot.sizes, snapshot.vths))
            ]
            self.applied.clear()
        elif path == "uniform":
            size = float(rng.choice(self.lib.sizes))
            vth = VTH_CLASSES[int(rng.integers(2))]
            self.circuit.set_uniform(size=size, vth=vth)
            for row in self.shadow:
                row[0], row[1] = size, vth
            self.applied.clear()
        elif path in ("sizing", "anneal"):
            if not self._on_grid():
                return
            if path == "sizing":
                minimize_delay(self.view, max_passes=2)
            else:
                if "anneal" in self.paths:
                    return  # a whole flow: once per walk is plenty
                optimize_annealing(
                    self.circuit, self.spec, self.varmodel,
                    anneal=AnnealConfig(steps=3, seed=int(rng.integers(100))),
                )
            # Whole-flow paths write through the gates; what they chose is
            # read back (the kernels below still check the arrays).
            self.shadow = self._read()
            self.applied.clear()
        self.paths.add(path)
        if rng.random() < 0.1:
            self.snapshots.append(
                GateAssignment(
                    sizes=tuple(r[0] for r in self.shadow),
                    vths=tuple(r[1] for r in self.shadow),
                    length_biases=tuple(r[2] for r in self.shadow),
                )
            )

    def check(self) -> None:
        circuit, view, state = self.circuit, self.view, self.circuit.state
        n = view.n_gates
        assert state.sizes.tolist() == [r[0] for r in self.shadow]
        assert [VTH_CLASSES[c] for c in state.vths.tolist()] == [r[1] for r in self.shadow]
        assert state.length_biases.tolist() == [r[2] for r in self.shadow]
        assert state.size_codes.tolist() == [self.lib.size_code(s) for s in state.sizes.tolist()]
        assert [(g.size, g.vth, g.length_bias) for g in view.gates] == [tuple(r) for r in self.shadow]

        loads = view.load_caps()
        per_gate = [view.load_cap_of(i) for i in range(n)]
        assert_bitwise(loads, per_gate)
        coeffs = [moves_ref.delay_coefficients(view, i) for i in range(n)]
        delays = view.nominal_delays()
        assert_bitwise(delays, [c[0] + c[1] * per_gate[i] for i, c in enumerate(coeffs)])
        assert_bitwise(delays, timing_ref.nominal_delays(view))
        canonicals = gate_delay_canonicals(view, self.varmodel)
        assert_canonicals_equal(canonicals, timing_ref.gate_delay_canonicals(view, self.varmodel))
        fresh = TimingView(circuit)
        assert_bitwise(fresh.load_caps(), loads)
        assert_bitwise(gate_delay_canonicals(fresh, self.varmodel).rows, canonicals.rows)

        currents = self.leakage.currents()
        assert_bitwise(currents, leak_ref.gate_leakage_currents(circuit, self.probs))
        assert_bitwise(gate_leakage_currents(circuit, self.probs), currents)


class TestRandomWalks:
    @pytest.mark.parametrize("seed", WALK_SEEDS)
    @pytest.mark.parametrize("name", ("every_cell", "c432", "c880"))
    def test_arrays_and_gathers_follow_every_mutation(self, name, seed, lib, spec):
        walk = Walk(_circuit(name, lib), spec, seed)
        walk.check()
        for _ in range(WALK_STEPS):
            walk.step()
            walk.check()
        assert walk.paths == {
            "size", "vth", "bias", "move", "revert", "assignment", "uniform",
            "sizing", "anneal",
        }


def _leakage(circuit):
    return GateLeakage(circuit, pin_probabilities(circuit))


def _strategies(view, varmodel, spec, leakage, config):
    """Both flows' strategies at a target 10% above the current delay."""
    stat = StatisticalStrategy(
        view, varmodel, 1.1 * run_sta(view).circuit_delay, config, leakage,
        leakage_lognormal_sum(view.circuit, varmodel),
    )
    corner = slow_corner(spec, config.corner_sigma)
    det = DeterministicStrategy(
        view, corner, 1.1 * run_sta(view, corner=corner).circuit_delay, leakage, config
    )
    return (
        (stat, moves_ref.statistical_move_allowed, moves_ref.statistical_move_cost),
        (det, moves_ref.deterministic_move_allowed, moves_ref.deterministic_move_cost),
    )


class TiedStrategy(ConstraintStrategy):
    """Allows every move at an infinite cost, so every score ties at 0."""

    name = "tied"

    def analyze(self):
        return None

    def is_feasible(self):
        return True

    def objective(self):
        return 0.0

    def move_costs(self, state, index, delay_cost):
        return np.ones(index.size, dtype=bool), np.full(index.size, np.inf)


FAMILIES = {
    "all": OptimizerConfig(enable_lbias=True),
    "vth": OptimizerConfig(enable_sizing=False),
    "size": OptimizerConfig(enable_vth=False),
    "lbias": OptimizerConfig(enable_vth=False, enable_sizing=False, enable_lbias=True),
}


def assert_same_candidates(engine, strategy, allowed, cost, tabu) -> None:
    view = engine.view
    state = strategy.analyze()
    circuit = view.circuit
    gate_probs = gate_input_probabilities(circuit, signal_probabilities(circuit))
    memo = moves_ref.GateLeakageMemo(circuit, gate_probs)
    want = moves_ref.collect_candidates(
        view, engine.config, state, tabu, memo,
        functools.partial(allowed, strategy), functools.partial(cost, strategy),
    )
    got = engine._collect_candidates(state, set(tabu))
    assert len(got) == len(want)
    assert got.scores.tobytes() == np.array([s for s, _ in want], dtype=float).tobytes()
    assert repr(got.head(len(got))) == repr([m for _, m in want])


class TestCandidateScoring:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("name", ("c432", "c880"))
    def test_batched_list_equals_per_move_loop(self, name, family, lib, spec):
        circuit = make_benchmark(name, lib)
        varmodel = build_variation_model(circuit, spec)
        view = TimingView(circuit)
        leakage = _leakage(circuit)
        config = FAMILIES[family]
        rng = np.random.default_rng(7)
        for _ in range(8):
            _randomize(circuit, rng)
            for strategy, allowed, cost in _strategies(view, varmodel, spec, leakage, config):
                engine = GreedyEngine(view, strategy, config, leakage)
                moves = list(moves_ref.candidate_moves(
                    view, config.enable_vth, config.enable_sizing,
                    config.enable_lbias, config.lbias_step, config.lbias_max,
                ))
                assert moves
                picks = rng.choice(len(moves), size=min(3, len(moves)), replace=False)
                tabu = {moves[int(k)].key() for k in picks}
                assert_same_candidates(engine, strategy, allowed, cost, tabu)
                assert_same_candidates(engine, strategy, allowed, cost, set())

    def test_tied_scores_order_by_gate_then_kind_name(self, lib):
        # An infinite cost scores every move 0.0: the order is the
        # tie-break alone, gate index and then kind name.
        circuit = make_benchmark("c432", lib)
        view = TimingView(circuit)
        _randomize(circuit, np.random.default_rng(5))
        config = FAMILIES["all"]
        strategy = TiedStrategy()
        engine = GreedyEngine(view, strategy, config, _leakage(circuit))
        assert_same_candidates(
            engine, strategy, lambda s, st, m, d: True, lambda s, st, m, d: np.inf, set()
        )
        moves = engine._collect_candidates(None, set()).head(10**6)
        assert len({m.index for m in moves}) < len(moves)  # some gate has several
        keys = [(m.index, m.kind) for m in moves]
        assert keys == sorted(keys)

    def test_candidate_moves_keep_the_per_gate_order(self, lib):
        circuit = make_benchmark("c432", lib)
        view = TimingView(circuit)
        _randomize(circuit, np.random.default_rng(3))
        args = (view, True, True, True, 2e-9, 8e-9)
        assert repr(list(candidate_moves(*args))) == repr(list(moves_ref.candidate_moves(*args)))


class TestEdgeCases:
    def test_off_grid_size_times_like_the_scalar_path(self, c432, spec):
        varmodel = build_variation_model(c432, spec)
        view = TimingView(c432)
        probs = signal_probabilities(c432)
        consumer = int(view.consumer_pins[0][0])
        view.gates[consumer].size = 1.5
        view.gates[3].size = 2.5
        view.gates[3].length_bias = 3.3e-9
        assert c432.state.size_codes[consumer] == -1
        n = view.n_gates
        assert_bitwise(view.load_caps(), [view.load_cap_of(i) for i in range(n)])
        coeffs = [moves_ref.delay_coefficients(view, i) for i in range(n)]
        assert_bitwise(
            view.nominal_delays(),
            [c[0] + c[1] * view.load_cap_of(i) for i, c in enumerate(coeffs)],
        )
        assert_canonicals_equal(
            gate_delay_canonicals(view, varmodel),
            timing_ref.gate_delay_canonicals(view, varmodel),
        )
        assert_bitwise(
            gate_leakage_currents(c432, probs), leak_ref.gate_leakage_currents(c432, probs)
        )

    def test_single_gate_circuit(self, lib, spec):
        circuit = Circuit("one", lib)
        circuit.add_input("a")
        circuit.add_gate("y", "NAND2", ["a", "a"])
        circuit.add_output("y")
        view = TimingView(circuit)
        probs = signal_probabilities(circuit)
        varmodel = build_variation_model(circuit, spec)
        assert circuit.state.sizes.tolist() == [1.0]
        assert_bitwise(view.load_caps(), [view.load_cap_of(0)])
        assert_bitwise(view.nominal_delays(), timing_ref.nominal_delays(view))
        assert_bitwise(
            gate_leakage_currents(circuit, probs), leak_ref.gate_leakage_currents(circuit, probs)
        )
        config = FAMILIES["all"]
        leakage = _leakage(circuit)
        for strategy, allowed, cost in _strategies(view, varmodel, spec, leakage, config):
            engine = GreedyEngine(view, strategy, config, leakage)
            assert_same_candidates(engine, strategy, allowed, cost, set())

    def test_no_candidate_reads_no_criticality(self, c432, spec):
        varmodel = build_variation_model(c432, spec)
        view = TimingView(c432)
        c432.set_uniform(size=1.0, vth=VthClass.HIGH)
        leakage = _leakage(c432)
        config = OptimizerConfig()
        (stat, allowed, cost), _ = _strategies(view, varmodel, spec, leakage, config)
        engine = GreedyEngine(view, stat, config, leakage)
        state = stat.analyze()
        scored = engine._collect_candidates(state, set())
        assert len(scored) == 0 and scored.head(8) == []
        assert "criticality" not in vars(state.ssta)
        assert_same_candidates(engine, stat, allowed, cost, set())
