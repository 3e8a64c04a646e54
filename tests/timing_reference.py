"""Scalar reference implementations of the timing kernels (test oracle).

These are the per-gate loops canonical SSTA and deterministic STA ran as
before the level-batched kernels replaced them, kept verbatim in
operation order so the kernels can be held to them bit for bit.  They
are self-contained on purpose -- scalar Clark moments, canonical sums
and maxes on plain ``(mean, sens, indep)`` tuples -- so a change to the
library's Clark or canonical code cannot move the oracle with it.  Only
the per-gate nominal-delay queries (``load_cap_of``,
``delay_coefficients``) come from the view: they are the scalar
definitions the batched ``load_caps``/``nominal_delays`` reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.tech.corners import ProcessCorner
from repro.timing.graph import TimingView
from repro.timing.sta import corner_delay_factor
from repro.variation.model import VariationModel

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_THETA_REL_FLOOR = 1e-12

#: ``(mean, sens, indep)`` -- one canonical form.
Canon = Tuple[float, np.ndarray, float]


def max_moments(mean_a, var_a, mean_b, var_b, cov_ab):
    """Clark's moments of ``max(A, B)``, one scalar pair at a time."""
    theta_sq = var_a + var_b - 2.0 * cov_ab
    if theta_sq <= _THETA_REL_FLOOR * (var_a + var_b) or theta_sq <= 0.0:
        if mean_a >= mean_b:
            return mean_a, var_a, 1.0
        return mean_b, var_b, 0.0
    theta = math.sqrt(theta_sq)
    x = (mean_a - mean_b) / theta
    t = 0.5 * (1.0 + math.erf(x / _SQRT2))
    phi = _INV_SQRT_2PI * math.exp(-0.5 * x * x)
    mean = mean_a * t + mean_b * (1.0 - t) + theta * phi
    second = (
        (mean_a * mean_a + var_a) * t
        + (mean_b * mean_b + var_b) * (1.0 - t)
        + (mean_a + mean_b) * theta * phi
    )
    variance = max(second - mean * mean, 0.0)
    return mean, variance, t


def variance(c: Canon) -> float:
    return float(c[1] @ c[1]) + c[2] * c[2]


def plus(a: Canon, b: Canon) -> Canon:
    return (a[0] + b[0], a[1] + b[1], math.hypot(a[2], b[2]))


def maximum_with_tightness(a: Canon, b: Canon) -> Tuple[Canon, float]:
    mean, var, t = max_moments(a[0], variance(a), b[0], variance(b), float(a[1] @ b[1]))
    sens = t * a[1] + (1.0 - t) * b[1]
    explained = float(sens @ sens)
    indep = math.sqrt(max(var - explained, 0.0))
    return (mean, sens, indep), t


def nominal_delays(view: TimingView) -> np.ndarray:
    """Per-gate ``intrinsic + slope * load_cap_of(i)``."""
    return np.array([view.nominal_delay_of(i) for i in range(view.n_gates)])


def gate_delay_canonicals(view: TimingView, varmodel: VariationModel) -> List[Canon]:
    delays = nominal_delays(view)
    vths = view.vths()
    vth_indep = varmodel.vth_indep_for(view.rdf_relative_area())
    drive = {v: view.library.drive_model(v) for v in set(vths)}
    out: List[Canon] = []
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
        out.append((d, sens, indep))
    return out


@dataclass
class ReferenceSSTA:
    delays: List[Canon]
    arrivals: List[Canon]
    circuit_delay: Canon
    criticality: np.ndarray


def run_ssta(view: TimingView, varmodel: VariationModel) -> ReferenceSSTA:
    """Per-gate canonical fold, sink fold, and sequential criticality sweep."""
    delays = gate_delay_canonicals(view, varmodel)
    n = view.n_gates
    arrivals: List[Canon] = [None] * n  # type: ignore[list-item]
    merge_shares: List[np.ndarray] = [np.empty(0)] * n
    for i in range(n):
        fanins = view.fanin_gates[i]
        if fanins.size == 0:
            arrivals[i] = delays[i]
            continue
        shares = np.ones(fanins.size)
        acc = arrivals[int(fanins[0])]
        for k in range(1, fanins.size):
            acc, tightness = maximum_with_tightness(acc, arrivals[int(fanins[k])])
            shares[:k] *= tightness
            shares[k] = 1.0 - tightness
        arrivals[i] = plus(acc, delays[i])
        merge_shares[i] = shares

    po = view.primary_output_indices()
    po_shares = np.ones(po.size)
    sink = arrivals[int(po[0])]
    for k in range(1, po.size):
        sink, tightness = maximum_with_tightness(sink, arrivals[int(po[k])])
        po_shares[:k] *= tightness
        po_shares[k] = 1.0 - tightness

    criticality = np.zeros(n)
    criticality[po] += po_shares
    for i in range(n - 1, -1, -1):
        c = criticality[i]
        if c == 0.0:
            continue
        fanins = view.fanin_gates[i]
        for k in range(fanins.size):
            criticality[int(fanins[k])] += c * merge_shares[i][k]
    return ReferenceSSTA(delays, arrivals, sink, criticality)


@dataclass
class ReferenceSTA:
    gate_delays: np.ndarray
    arrivals: np.ndarray
    required: np.ndarray
    circuit_delay: float
    critical_path: Tuple[str, ...]


def run_sta(
    view: TimingView,
    target_delay: Optional[float] = None,
    corner: Optional[ProcessCorner] = None,
) -> ReferenceSTA:
    """Per-gate arrival sweep, per-gate required-time sweep, path trace."""
    n = view.n_gates
    delays = nominal_delays(view)
    if corner is not None:
        factors = corner_delay_factor(view, corner)
        delays = delays * np.array([factors[v] for v in view.vths()])
    arrivals = np.empty(n)
    for i in range(n):
        fanins = view.fanin_gates[i]
        worst_in = float(arrivals[fanins].max()) if fanins.size else 0.0
        arrivals[i] = worst_in + delays[i]
    po = view.primary_output_indices()
    circuit_delay = float(arrivals[po].max())
    if target_delay is None:
        target_delay = circuit_delay
    required = np.full(n, math.inf)
    required[po] = target_delay
    for i in range(n - 1, -1, -1):
        req_i = required[i]
        if math.isinf(req_i):
            continue
        latest_input_arrival = req_i - delays[i]
        for f in view.fanin_gates[i]:
            if latest_input_arrival < required[f]:
                required[f] = latest_input_arrival
    required[np.isinf(required)] = target_delay

    current = int(po[np.argmax(arrivals[po])])
    path = [view.gates[current].name]
    while view.fanin_gates[current].size:
        fanins = view.fanin_gates[current]
        current = int(fanins[np.argmax(arrivals[fanins])])
        path.append(view.gates[current].name)
    path.reverse()
    return ReferenceSTA(delays, arrivals, required, circuit_delay, tuple(path))
