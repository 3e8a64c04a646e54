"""Statistical static timing analysis (substrate S8).

First-order canonical SSTA: every gate delay becomes a
:class:`~repro.timing.canonical.Canonical` whose global sensitivities come
from the gate's variation-model loadings and whose independent part
carries the gate-private (RDF/local-Leff) randomness.  Arrival times
propagate topologically — sums exact, merges via Clark's max — yielding a
canonical circuit-delay distribution, per-gate **criticalities** (the
probability a gate lies on the critical path), and the **timing yield**
``P(delay <= T)`` that the statistical optimizer constrains.

Criticality uses the standard tightness-propagation: each Clark merge
records the probability each operand won; backward traversal multiplies
and accumulates these shares from the (virtual) sink to every gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import TimingError
from ..telemetry import get_telemetry
from ..variation.model import VariationModel
from .canonical import Canonical, CanonicalArray, max_rows, rowdot
from .graph import LevelSchedule, TimingConfig, TimingView


@dataclass(frozen=True)
class SSTAResult:
    """Output of one SSTA run.

    A result may be shared: :func:`run_ssta` hands the same object to
    every caller that analyzes a view at the same state, so its arrays
    are read-only.

    Attributes
    ----------
    arrivals:
        Canonical arrival time at each gate's output (dense order).
    gate_delay_means:
        Mean (nominal) delay of each gate [s].
    circuit_delay:
        Canonical distribution of the circuit delay.
    criticality:
        Per-gate probability of lying on the critical path.  Sums to ~1
        per structurally-independent sink cone (it is a path measure, not
        a partition of unity over gates).  Computed from the recorded
        merge tightnesses on first access, so a run that only asks for
        yield never pays for the backward pass.
    """

    arrivals: CanonicalArray
    gate_delay_means: np.ndarray
    circuit_delay: Canonical
    #: The structure the run propagated over (its backward scatter plan).
    _schedule: LevelSchedule = field(repr=False, compare=False)
    #: Per rank, per fanin column ``j >= 1``: the tightness of each merge
    #: that folded column ``j`` into the rank's leading rows.
    _tightness: List[List[np.ndarray]] = field(repr=False, compare=False)
    _po: np.ndarray = field(repr=False, compare=False)
    _po_shares: np.ndarray = field(repr=False, compare=False)

    def timing_yield(self, target_delay: float) -> float:
        """P(circuit delay <= target)."""
        if target_delay <= 0:
            raise TimingError(f"target delay must be positive, got {target_delay}")
        return self.circuit_delay.cdf(target_delay)

    def delay_at_yield(self, eta: float) -> float:
        """The delay target that would be met with probability ``eta``."""
        return self.circuit_delay.percentile(eta)

    @cached_property
    def criticality(self) -> np.ndarray:
        """Per-gate probability of lying on the critical path."""
        with get_telemetry().span("ssta.criticality", gates=self._schedule.n_gates):
            criticality = _criticality(
                self._schedule, self._tightness, self._po, self._po_shares
            )
        criticality.flags.writeable = False
        return criticality


def gate_delay_canonicals(
    view: TimingView, varmodel: VariationModel
) -> CanonicalArray:
    """Canonical delay of every gate at the current implementation state.

    ``d = d_nom * (1 + s_R·ΔlnR)`` first-order: the global sensitivity
    vector is ``d_nom * (dlnR/dL * L_loadings + dlnR/dVth * V_loadings)``
    and the independent sigma combines the local-Leff and (size-de-rated)
    RDF components in quadrature.  The per-gate sensitivities are
    gathered by Vth code from the library's tables.
    """
    if varmodel.n_gates != view.n_gates:
        raise TimingError(
            f"variation model covers {varmodel.n_gates} gates, "
            f"circuit has {view.n_gates}"
        )
    delays = view.nominal_delays()
    vth_indep = varmodel.vth_indep_for(view.rdf_relative_area())
    tables = view.library.tables
    d_l = tables.d_lnr_d_deltal[view.state.vths]
    d_v = tables.d_lnr_d_deltavth[view.state.vths]
    sens = delays[:, None] * (
        d_l[:, None] * varmodel.l_loadings + d_v[:, None] * varmodel.vth_loadings
    )
    indep = delays * np.hypot(d_l * varmodel.l_indep, d_v * vth_indep)
    return CanonicalArray.from_parts(delays, sens, indep)


def run_ssta(
    circuit_or_view: Circuit | TimingView,
    varmodel: VariationModel,
    config: Optional[TimingConfig] = None,
) -> SSTAResult:
    """Run canonical SSTA at the circuit's current implementation state.

    Arrivals propagate rank by rank over the view's
    :class:`~repro.timing.graph.LevelSchedule`: every gate of a rank
    folds its fanins through :func:`~repro.timing.canonical.max_rows`
    one fanin column at a time, in fanin order, then adds its own delay.
    Each gate sees exactly the operations a per-gate fold would apply, in
    the same order, so every arrival is bit-identical to it.

    The forward pass and the output fold read only the gate-delay rows,
    the view's fixed schedule and its primary outputs.  So when the rows
    just built are bit for bit those of the view's previous run, that
    run's result *is* what propagating would return, and it is returned
    as is -- the same object, whose lazy criticality is then computed
    once per state.  The view keeps one slot (:attr:`TimingView.last_ssta`);
    a circuit gets a fresh view and always propagates.
    """
    view = (
        circuit_or_view
        if isinstance(circuit_or_view, TimingView)
        else TimingView(circuit_or_view, config)
    )
    tele = get_telemetry()
    tele.counter("ssta_runs_total").inc()
    with tele.span("ssta.run", gates=view.n_gates) as span:
        with tele.span("ssta.delays"):
            delays = gate_delay_canonicals(view, varmodel)
        last = view.last_ssta
        if last is not None and _same_bits(last[0], delays.rows):
            span.set(reused=True)
            tele.counter("ssta_reused_total").inc()
            return last[1]
        span.set(reused=False)
        with tele.span("ssta.propagate"):
            arrivals, tightness = _propagate(view.schedule, delays)
            po = view.primary_output_indices()
            sink, po_shares = _fold_outputs(arrivals, po)
        tele.counter("ssta_merge_calls_total").inc(view.schedule.n_merges)
        tele.counter("ssta_fold_merges_total").inc(po.size - 1)
        means = delays.mean.copy()
        means.flags.writeable = False
        result = SSTAResult(
            arrivals=arrivals,
            gate_delay_means=means,
            circuit_delay=sink,
            _schedule=view.schedule,
            _tightness=tightness,
            _po=po,
            _po_shares=po_shares,
        )
        view.last_ssta = (delays.rows, result)
        return result


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float arrays hold the same bits.

    Compared as ``uint64`` so ``-0.0`` and ``0.0`` differ; rows holding a
    NaN never match.
    """
    same = np.array_equal(a.view(np.uint64), b.view(np.uint64))
    return same and not np.isnan(a).any()


def _propagate(
    schedule: LevelSchedule, delays: CanonicalArray
) -> tuple[CanonicalArray, List[List[np.ndarray]]]:
    """Forward pass: arrivals plus every merge's tightness, rank by rank.

    Primary-input fanins arrive at a deterministic 0 and are not part of
    the fold.
    """
    d = delays.rows
    state = np.empty(d.shape)
    tightness_by_rank: List[List[np.ndarray]] = []
    for (gates, fanins), active in zip(schedule.levels, schedule.active):
        tightness: List[np.ndarray] = []
        tightness_by_rank.append(tightness)
        width = fanins.shape[1]
        if width == 0:
            state[gates] = d[gates]
            continue
        acc = state[fanins[:, 0]]
        for j in range(1, width):
            rows = active[j]
            acc[:rows], t = max_rows(acc[:rows], state[fanins[:rows, j]])
            tightness.append(t)
        # Canonical.plus: means and sensitivities add, independent parts
        # add in quadrature.
        gate_delays = d[gates]
        acc[:, 0] += gate_delays[:, 0]
        acc[:, 3:] += gate_delays[:, 3:]
        acc[:, 2] = [
            math.hypot(a, b)
            for a, b in zip(acc[:, 2].tolist(), gate_delays[:, 2].tolist())
        ]
        acc[:, 1] = rowdot(acc[:, 3:], acc[:, 3:]) + acc[:, 2] * acc[:, 2]
        state[gates] = acc
    return CanonicalArray(state), tightness_by_rank


def _fold_outputs(
    arrivals: CanonicalArray, po: np.ndarray
) -> tuple[Canonical, np.ndarray]:
    """Clark-max the primary-output arrivals into the sink, in ``po`` order.

    Returns the circuit delay and, per output, the probability that it
    sets the max.  The fold is a chain -- each merge needs the previous
    one -- so it runs one row at a time.
    """
    rows = arrivals.rows
    po_shares = np.ones(po.size)
    sink = rows[po[:1]]
    for k in range(1, po.size):
        sink, tightness = max_rows(sink, rows[po[k : k + 1]])
        po_shares[:k] *= tightness[0]
        po_shares[k] = 1.0 - tightness[0]
    return CanonicalArray(sink)[0], po_shares


def _criticality(
    schedule: LevelSchedule,
    tightness: List[List[np.ndarray]],
    po: np.ndarray,
    po_shares: np.ndarray,
) -> np.ndarray:
    """Backward pass: tightness shares accumulated from the sink.

    A gate's share of fanin ``j`` is the probability that fanin ``j``
    won its fold: ``1 - T_j`` times the tightness of every later merge.
    Rank by rank from the outputs, a rank's gates receive their
    consumers' contributions (all at higher ranks, already known) through
    ``np.add.at`` in the schedule's ``backward`` order -- each gate's
    terms summed in the order a sequential sweep by descending gate index
    adds them, after its output share -- then pass ``criticality * share``
    on to their own fanins.  ``np.add.at`` rather than fancy ``+=``: a
    gate may list one fanin twice (``NAND(a, a)``), and ``+=`` would keep
    only one of the two terms.
    """
    criticality = np.zeros(schedule.n_gates)
    criticality[po] += po_shares
    contributions = np.empty(schedule.n_slots)
    for rank in range(len(schedule.levels) - 1, -1, -1):
        gates, fanins = schedule.levels[rank]
        edges, targets = schedule.backward[rank]
        if edges.size:
            np.add.at(criticality, targets, contributions[edges])
        if fanins.size:
            shares = np.ones(fanins.shape)
            for j, t in enumerate(tightness[rank], start=1):
                rows = t.size
                shares[:rows, :j] *= t[:, None]
                shares[:rows, j] = 1.0 - t
            start = schedule.offsets[rank]
            contributions[start : start + fanins.size] = (
                criticality[gates][:, None] * shares
            ).ravel()
    return criticality
