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

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import TimingError
from ..telemetry import get_telemetry
from ..variation.model import VariationModel
from .canonical import Canonical
from .graph import TimingConfig, TimingView


@dataclass(frozen=True)
class SSTAResult:
    """Output of one SSTA run.

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
        a partition of unity over gates).
    """

    arrivals: List[Canonical]
    gate_delay_means: np.ndarray
    circuit_delay: Canonical
    criticality: np.ndarray

    def timing_yield(self, target_delay: float) -> float:
        """P(circuit delay <= target)."""
        if target_delay <= 0:
            raise TimingError(f"target delay must be positive, got {target_delay}")
        return self.circuit_delay.cdf(target_delay)

    def delay_at_yield(self, eta: float) -> float:
        """The delay target that would be met with probability ``eta``."""
        return self.circuit_delay.percentile(eta)


def gate_delay_canonicals(
    view: TimingView, varmodel: VariationModel
) -> List[Canonical]:
    """Canonical delay of every gate at the current implementation state.

    ``d = d_nom * (1 + s_R·ΔlnR)`` first-order: the global sensitivity
    vector is ``d_nom * (dlnR/dL * L_loadings + dlnR/dVth * V_loadings)``
    and the independent sigma combines the local-Leff and (size-de-rated)
    RDF components in quadrature.
    """
    if varmodel.n_gates != view.n_gates:
        raise TimingError(
            f"variation model covers {varmodel.n_gates} gates, "
            f"circuit has {view.n_gates}"
        )
    delays = view.nominal_delays()
    vths = view.vths()
    vth_indep = varmodel.vth_indep_for(view.rdf_relative_area())
    drive = {v: view.library.drive_model(v) for v in set(vths)}
    out: List[Canonical] = []
    for i in range(view.n_gates):
        model = drive[vths[i]]
        d = float(delays[i])
        sens = d * (
            model.d_lnr_d_deltal * varmodel.l_loadings[i]
            + model.d_lnr_d_deltavth * varmodel.vth_loadings[i]
        )
        indep = d * float(
            np.hypot(
                model.d_lnr_d_deltal * varmodel.l_indep,
                model.d_lnr_d_deltavth * vth_indep[i],
            )
        )
        out.append(Canonical(d, sens, indep))
    return out


def run_ssta(
    circuit_or_view: Circuit | TimingView,
    varmodel: VariationModel,
    config: Optional[TimingConfig] = None,
) -> SSTAResult:
    """Run canonical SSTA at the circuit's current implementation state."""
    view = (
        circuit_or_view
        if isinstance(circuit_or_view, TimingView)
        else TimingView(circuit_or_view, config)
    )
    tele = get_telemetry()
    tele.counter("ssta_runs_total").inc()
    with tele.span("ssta.run", gates=view.n_gates):
        delays = gate_delay_canonicals(view, varmodel)
        n = view.n_gates

        arrivals: List[Canonical] = [None] * n  # type: ignore[list-item]
        # merge_shares[i]: per-gate-fanin probability of being the max
        # input, aligned with view.fanin_gates[i]; used by criticality.
        merge_shares: List[np.ndarray] = [np.empty(0)] * n
        for i in range(n):
            fanins = view.fanin_gates[i]
            if fanins.size == 0:
                arrivals[i] = delays[i]
                continue
            shares = np.ones(fanins.size)
            acc = arrivals[int(fanins[0])]
            for k in range(1, fanins.size):
                acc, tightness = acc.maximum_with_tightness(
                    arrivals[int(fanins[k])]
                )
                shares[:k] *= tightness
                shares[k] = 1.0 - tightness
            arrivals[i] = acc.plus(delays[i])
            merge_shares[i] = shares

        po = view.primary_output_indices()
        po_shares = np.ones(po.size)
        sink = arrivals[int(po[0])]
        for k in range(1, po.size):
            sink, tightness = sink.maximum_with_tightness(arrivals[int(po[k])])
            po_shares[:k] *= tightness
            po_shares[k] = 1.0 - tightness

        criticality = np.zeros(n)
        criticality[po] += po_shares
        for i in range(n - 1, -1, -1):
            c = criticality[i]
            if c == 0.0:  # lint: ignore[RPR402] exact zero skips gates off every critical path
                continue
            fanins = view.fanin_gates[i]
            if fanins.size == 0:
                continue
            shares = merge_shares[i]
            for k in range(fanins.size):
                criticality[int(fanins[k])] += c * shares[k]

        return SSTAResult(
            arrivals=arrivals,
            gate_delay_means=np.array([d.mean for d in delays]),
            circuit_delay=sink,
            criticality=criticality,
        )
