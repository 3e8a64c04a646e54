"""Shared greedy optimization engine.

Both the deterministic baseline and the statistical optimizer run the same
chunked-greedy skeleton; they differ only through a
:class:`ConstraintStrategy` that defines *feasibility*, the *objective*,
and the move *filter/cost model*:

1. analyze the circuit (STA / SSTA) at the current state;
2. enumerate leakage-reducing moves, filter by the strategy's local slack
   test, rank by leakage gain per expected delay cost;
3. apply the top chunk, then **exactly** re-validate the constraint —
   binary-rolling back the lowest-ranked applied moves until feasible;
4. repeat until no candidate survives filtering (tabu marks moves whose
   single application proved infeasible, so passes terminate).

The chunked-validate-rollback pattern is what makes a few thousand moves
affordable with full-accuracy (corner-STA / SSTA) constraint checking:
exact analyses run per *chunk*, not per candidate.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Set, Tuple

import numpy as np

from ..errors import InfeasibleConstraintError
from ..power.leakage import GateLeakage
from ..telemetry import get_telemetry
from ..timing.graph import TimingView
from .config import OptimizerConfig
from .moves import (
    Move,
    MoveBatch,
    apply_move,
    enumerate_moves,
    leakage_gains,
    own_delay_costs,
    revert_move,
)
from .result import PassRecord

#: Floor in the score denominator: a move with ~zero delay cost is capped
#: at this effective cost instead of producing infinite scores.
_COST_FLOOR = 1e-15


def run_phased(
    view: "TimingView",
    strategy: "ConstraintStrategy",
    config: "OptimizerConfig",
    leakage: GateLeakage,
) -> Tuple[List["PassRecord"], int]:
    """Run the greedy engine in phases: Vth swaps, then sizing, then Vth.

    Every phase scores its moves with the flow's one ``leakage``.

    Interleaving the move families in one greedy run is an ordering
    trap: downsizes are individually cheap, so they happily consume the
    slack that the few remaining — expensive but far more valuable —
    Vth swaps on near-critical gates would have needed.  Separating the
    phases (and revisiting Vth once sizing has settled) removes the trap
    for both flows identically.  When an ablation enables only one move
    family, a single combined run is performed.
    """
    from dataclasses import replace

    families = sum(
        (config.enable_vth, config.enable_sizing, config.enable_lbias)
    )
    if families > 1:
        phase_configs = []
        if config.enable_vth:
            phase_configs.append(
                replace(config, enable_sizing=False, enable_lbias=False)
            )
        if config.enable_sizing:
            phase_configs.append(
                replace(config, enable_vth=False, enable_lbias=False)
            )
        if config.enable_lbias:
            phase_configs.append(
                replace(config, enable_vth=False, enable_sizing=False)
            )
        if config.enable_vth:
            phase_configs.append(
                replace(config, enable_sizing=False, enable_lbias=False)
            )
    else:
        phase_configs = [config]
    tele = get_telemetry()
    records: List[PassRecord] = []
    total = 0
    for phase_index, phase_config in enumerate(phase_configs):
        engine = GreedyEngine(view, strategy, phase_config, leakage)
        with tele.span(
            "opt.phase", flow=strategy.name, index=phase_index
        ) as phase_span:
            phase_records, applied = engine.run()
            phase_span.set(passes=len(phase_records), applied=applied)
        offset = len(records)
        records.extend(
            replace(r, pass_index=offset + i) for i, r in enumerate(phase_records)
        )
        total += applied
    return records, total


class ConstraintStrategy(abc.ABC):
    """What a flow must define on top of the shared greedy engine."""

    #: Human-readable flow name (lands in the result object).
    name: str

    @abc.abstractmethod
    def analyze(self) -> object:
        """Run the flow's timing analysis; returns an opaque state object
        consumed by :meth:`move_costs`."""

    @abc.abstractmethod
    def is_feasible(self) -> bool:
        """Exact constraint check at the circuit's *current* state."""

    @abc.abstractmethod
    def objective(self) -> float:
        """Exact objective at the circuit's current state (lower better)."""

    @abc.abstractmethod
    def move_costs(
        self, state: object, index: np.ndarray, delay_cost: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Local filter and cost of a batch of moves.

        ``index`` and ``delay_cost`` (each move's own-delay increase,
        clamped at 0) hold one entry per move.  Returns ``(allowed,
        cost)``: the mask of moves that plausibly fit in their slack (a
        cheap local filter), and the expected circuit-delay cost -- the
        ranking denominator -- of each allowed move, in batch order.
        """

    def on_move_applied(self, move: Move) -> None:
        """Hook: a move was just applied (incremental-analysis strategies
        update their caches here).  Default: no-op."""

    def on_move_reverted(self, move: Move) -> None:
        """Hook: a previously applied move was just reverted."""


@dataclass(frozen=True)
class ScoredMoves:
    """Candidate moves in rank order, with their scores."""

    moves: MoveBatch
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.moves)

    def head(self, k: int) -> List[Move]:
        """The ``k`` best moves as :class:`Move` objects."""
        return [self.moves.move(i) for i in range(min(k, len(self)))]


class GreedyEngine:
    """Chunked greedy leakage minimizer over a fixed move space.

    ``leakage`` evaluates the nominal gate currents candidate moves are
    scored by (the flow's :class:`~repro.power.leakage.GateLeakage`).
    """

    def __init__(
        self,
        view: TimingView,
        strategy: ConstraintStrategy,
        config: OptimizerConfig,
        leakage: GateLeakage,
    ) -> None:
        self.view = view
        self.strategy = strategy
        self.config = config
        self.leakage = leakage

    def run(self) -> Tuple[List[PassRecord], int]:
        """Run to convergence; returns (pass records, total moves kept).

        Raises
        ------
        InfeasibleConstraintError
            If the starting point already violates the constraint — the
            caller's initial sizing should have prevented that.
        """
        if not self.strategy.is_feasible():
            raise InfeasibleConstraintError(
                f"{self.strategy.name}: starting point violates the constraint"
            )
        tele = get_telemetry()
        flow = self.strategy.name
        records: List[PassRecord] = []
        tabu: Set[Tuple[int, str, object]] = set()
        total_applied = 0
        stalled_passes = 0
        chunk_size = max(
            self.config.min_chunk,
            int(self.view.n_gates * self.config.chunk_fraction),
        )
        for pass_index in range(self.config.max_passes):
            with tele.span("opt.pass", flow=flow, index=pass_index) as pass_span:
                with tele.span("opt.analyze", flow=flow):
                    state = self.strategy.analyze()
                with tele.span("opt.candidates", flow=flow):
                    scored = self._collect_candidates(state, tabu)
                tele.counter("opt_candidates_total", flow=flow).inc(len(scored))
                if not scored:
                    break
                applied: List[Tuple[Move, Tuple[float, object]]] = []
                with tele.span("opt.apply", flow=flow) as apply_span:
                    for move in scored.head(chunk_size):
                        applied.append((move, apply_move(self.view, move)))
                        self.strategy.on_move_applied(move)
                    apply_span.set(chunk=len(applied))
                with tele.span("opt.validate", flow=flow, chunk=len(applied)):
                    reverted = self._validate_and_rollback(applied, tabu)
                kept = len(applied)  # rollback already trimmed the list
                total_applied += kept
                tele.counter("opt_moves_applied_total", flow=flow).inc(kept)
                tele.counter("opt_moves_reverted_total", flow=flow).inc(reverted)
                pass_span.set(candidates=len(scored), applied=kept,
                              reverted=reverted)
                with tele.span("opt.objective", flow=flow):
                    objective = self.strategy.objective()
                records.append(
                    PassRecord(
                        pass_index=pass_index,
                        candidates=len(scored),
                        applied=kept,
                        reverted=reverted,
                        objective=objective,
                    )
                )
                # A stalled pass keeps nothing: the local filter is letting
                # through moves the exact validation rejects.  One stall
                # tabus the top move; several in a row mean the constraint
                # is pinned and further passes would only churn.
                stalled_passes = stalled_passes + 1 if kept == 0 else 0
                if stalled_passes >= self.config.max_stalled_passes:
                    break
        return records, total_applied

    # -- internals -------------------------------------------------------------

    def _collect_candidates(
        self, state: object, tabu: Set[Tuple[int, str, object]]
    ) -> "ScoredMoves":
        """Every allowed, non-tabu move with a leakage gain, best first.

        One array pass: enumerate, drop tabu moves, keep positive gains,
        clamp own-delay costs at 0, let the strategy filter and cost the
        batch, score ``gain / max(cost, floor)``, and sort by score
        descending, ties broken by gate index and then kind name.
        """
        config = self.config
        batch = enumerate_moves(
            self.view,
            config.enable_vth,
            config.enable_sizing,
            config.enable_lbias,
            config.lbias_step,
            config.lbias_max,
        )
        get_telemetry().counter(
            "opt_moves_evaluated_total", flow=self.strategy.name
        ).inc(len(batch))
        if tabu:
            batch = batch.take(~batch.matches(list(tabu)))
        gain = leakage_gains(self.view, batch, self.leakage)
        positive = gain > 0.0
        batch, gain = batch.take(positive), gain[positive]
        loads = self.view.load_caps()[batch.index]
        delay_cost = own_delay_costs(self.view, batch, loads)
        delay_cost[delay_cost < 0.0] = 0.0  # downsizing an overloaded stage can help
        allowed, cost = self.strategy.move_costs(state, batch.index, delay_cost)
        batch, gain = batch.take(allowed), gain[allowed]
        score = gain / np.maximum(cost, _COST_FLOOR)
        order = np.lexsort((batch.kind, batch.index, -score))
        return ScoredMoves(batch.take(order), score[order])

    def _validate_and_rollback(
        self,
        applied: List[Tuple[Move, Tuple[float, object]]],
        tabu: Set[Tuple[int, str, object]],
    ) -> int:
        """Exact validation with halving rollback of the weakest moves.

        Mutates ``applied`` down to the kept prefix; returns the number of
        reverted moves.  If even the single best move is infeasible alone,
        it is reverted and tabu-ed so it is never retried.
        """
        reverted = 0
        while applied and not self.strategy.is_feasible():
            k = max(1, len(applied) // 2)
            if len(applied) == 1:
                move, old = applied.pop()
                revert_move(self.view, move, old)
                self.strategy.on_move_reverted(move)
                tabu.add(move.key())
                reverted += 1
                break
            for move, old in applied[-k:]:
                revert_move(self.view, move, old)
                self.strategy.on_move_reverted(move)
            del applied[-k:]
            reverted += k
        return reverted
