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
from typing import List, NamedTuple, Optional

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import TimingError
from ..telemetry import get_telemetry
from ..variation.model import VariationModel
from .canonical import Canonical, CanonicalArray, clark_merge
from .graph import LevelSchedule, TimingConfig, TimingView, WaveSchedule


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
    #: The structure's backward scatter plan.
    _schedule: LevelSchedule = field(repr=False, compare=False)
    #: The merge schedule the run propagated over.
    _waves: WaveSchedule = field(repr=False, compare=False)
    #: Per wave with merges, the tightness of each (``_waves.slots`` order).
    _tightness: List[np.ndarray] = field(repr=False, compare=False)
    _po: np.ndarray = field(repr=False, compare=False)

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
                self._schedule, self._waves, self._tightness, self._po
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


class LastSSTA(NamedTuple):
    """A view's last SSTA run: the state version and variation model it
    analyzed, the gate-delay canonical rows it propagated and its result."""

    version: int
    varmodel: VariationModel
    rows: np.ndarray
    result: SSTAResult


def run_ssta(
    circuit_or_view: Circuit | TimingView,
    varmodel: VariationModel,
    config: Optional[TimingConfig] = None,
) -> SSTAResult:
    """Run canonical SSTA at the circuit's current implementation state.

    Arrivals propagate wave by wave over the view's
    :class:`~repro.timing.graph.WaveSchedule`: each wave makes one
    batched :func:`~repro.timing.canonical.clark_merge` call over every
    merge whose operands exist, then adds the delay of every gate whose
    fanins are folded.  The primary-output fold is the schedule's virtual
    sink, so its merges ride in the same waves.  Each gate and the sink
    see exactly the operations a per-gate fold would apply, in the same
    order, so every arrival and the circuit delay are bit-identical to it.

    The forward pass reads only the gate-delay rows and the view's fixed
    schedules, and the rows depend only on the state and the variation
    model (which cannot change once built).  So the view's previous result
    *is* what propagating would return -- and is returned as is, the same
    object, whose lazy criticality is then computed once per state --
    when the state version and the model (compared with ``is``) are those
    of that run, without building rows; or, when either moved, when the
    rows just built are bit for bit that run's: writes that put the state
    back to the one last analyzed move the version but repeat the rows
    (the annealer re-proposing the move it has just rejected, or a write
    and its revert with no run between).  The view keeps one slot
    (:attr:`TimingView.last_ssta`); a circuit gets a fresh view and
    always propagates.
    """
    view = (
        circuit_or_view
        if isinstance(circuit_or_view, TimingView)
        else TimingView(circuit_or_view, config)
    )
    tele = get_telemetry()
    tele.counter("ssta_runs_total").inc()
    with tele.span("ssta.run", gates=view.n_gates) as span:
        version = view.state.version
        last = view.last_ssta
        if last is not None and last.version == version and last.varmodel is varmodel:
            span.set(reused=True)
            tele.counter("ssta_reused_total").inc()
            return last.result
        with tele.span("ssta.delays"):
            delays = gate_delay_canonicals(view, varmodel)
        if last is not None and _same_bits(last.rows, delays.rows):
            span.set(reused=True)
            tele.counter("ssta_reused_total").inc()
            view.last_ssta = last._replace(version=version, varmodel=varmodel)
            return last.result
        span.set(reused=False)
        with tele.span("ssta.propagate"):
            waves = view.waves
            arrivals, sink, tightness = _propagate(waves, delays)
            po = view.primary_output_indices()
        tele.counter("ssta_merge_calls_total").inc(waves.n_merge_calls)
        tele.counter("ssta_merge_rows_total").inc(waves.n_merges)
        tele.counter("ssta_fold_merges_total").inc(waves.n_outputs - 1)
        means = delays.mean.copy()
        means.flags.writeable = False
        result = SSTAResult(
            arrivals=arrivals,
            gate_delay_means=means,
            circuit_delay=sink,
            _schedule=view.schedule,
            _waves=waves,
            _tightness=tightness,
            _po=po,
        )
        view.last_ssta = LastSSTA(version, varmodel, delays.rows, result)
        return result


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float arrays hold the same bits.

    Compared as ``uint64`` so ``-0.0`` and ``0.0`` differ; rows holding a
    NaN never match.
    """
    same = np.array_equal(a.view(np.uint64), b.view(np.uint64))
    return same and not np.isnan(a).any()


def _propagate(
    waves: WaveSchedule, delays: CanonicalArray
) -> tuple[CanonicalArray, Canonical, List[np.ndarray]]:
    """Forward pass: arrivals, the circuit delay and every merge's
    tightness, wave by wave.

    Every row starts at its gate's delay, which is a fanin-free gate's
    arrival; the other rows are overwritten before they are read.
    Primary-input fanins arrive at a deterministic 0 and are not part of
    the fold.
    """
    d = delays.rows
    n = waves.n_gates
    rows = np.zeros((n + 1, d.shape[1]))
    rows[:n] = d
    sens = rows[:, 3:]
    mean, variance, indep = (rows[:, c].tolist() for c in range(3))
    delay_mean, delay_indep = d[:, 0].tolist(), d[:, 2].tolist()
    delay_sens = d[:, 3:]
    tightness: List[np.ndarray] = []
    for merge, add in waves.waves:
        if merge is not None:
            tightness.append(clark_merge(mean, variance, indep, sens, merge))
        if add is not None:
            # Canonical.plus: means and sensitivities add, independent
            # parts add in quadrature.
            gates = add.gate_rows
            acc = sens[add.src_rows]
            acc += delay_sens[gates]
            sens[gates] = acc
            explained = np.vecdot(acc, acc).tolist()
            for gate, src, e in zip(add.gates, add.src, explained):
                sigma = math.hypot(indep[src], delay_indep[gate])
                mean[gate] = mean[src] + delay_mean[gate]
                variance[gate] = e + sigma * sigma
                indep[gate] = sigma
    rows[:, 0] = mean
    rows[:, 1] = variance
    rows[:, 2] = indep
    sink = CanonicalArray(rows[[waves.sink]])[0]
    return CanonicalArray(rows[:n]), sink, tightness


def _shares(tightness: np.ndarray) -> np.ndarray:
    """Per fold and fanin, the probability that the fanin won the fold.

    ``tightness`` holds one fold per row, merge ``j``'s tightness in
    column ``j`` (column 0 unused).  Fanin ``j``'s share is ``1 - T_j``
    times the tightness of every later merge, multiplied in the fold's
    order, one column step at a time.  A padded column reads tightness
    1.0, which multiplies exactly.
    """
    shares = np.ones(tightness.shape)
    for j in range(1, tightness.shape[1]):
        t = tightness[:, j]
        shares[:, :j] *= t[:, None]
        shares[:, j] = 1.0 - t
    return shares


def _criticality(
    schedule: LevelSchedule,
    waves: WaveSchedule,
    tightness: List[np.ndarray],
    po: np.ndarray,
) -> np.ndarray:
    """Backward pass: tightness shares accumulated from the sink.

    The merges' tightness fills one flat slot array, padded with 1.0:
    every gate's shares come from its ``(n, width)`` block at once, and
    the sink's from its ``n_outputs`` slots with the output fold's loop.
    Rank by rank from the outputs, a rank's gates receive their
    consumers' contributions (all at higher ranks, already known) through
    ``np.add.at`` in the schedule's ``backward`` order -- each gate's
    terms summed in the order a sequential sweep by descending gate index
    adds them, after its output share -- then pass ``criticality * share``
    on to their own fanins.  ``np.add.at`` rather than fancy ``+=``: a
    gate may list one fanin twice (``NAND(a, a)``), and ``+=`` would keep
    only one of the two terms.
    """
    n, width = schedule.n_gates, waves.width
    slots = np.ones(n * width + waves.n_outputs)
    if tightness:
        slots[waves.slots] = np.concatenate(tightness)
    shares = _shares(slots[: n * width].reshape(n, width))
    criticality = np.zeros(n)
    criticality[po] += _shares(slots[n * width :].reshape(1, -1))[0]
    contributions = np.empty(schedule.n_slots)
    for rank in range(len(schedule.levels) - 1, -1, -1):
        gates, fanins = schedule.levels[rank]
        edges, targets = schedule.backward[rank]
        if edges.size:
            np.add.at(criticality, targets, contributions[edges])
        if fanins.size:
            start = schedule.offsets[rank]
            contributions[start : start + fanins.size] = (
                criticality[gates][:, None] * shares[gates, : fanins.shape[1]]
            ).ravel()
    return criticality
