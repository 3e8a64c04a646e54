"""Histogram-based SSTA engine (distribution-shape-free max).

Semi-analytic lattice propagation: every arrival keeps the canonical
*linear global sensitivity vector* exactly (like Clark — inter-die and
spatial correlation ride through untouched), while the remaining
randomness (gate means plus accumulated independent parts) is carried
as a probability-mass function on a fixed lattice ``t_k = k * w``:

* **sum** — exact lattice convolution (``np.convolve``), with mass that
  would leave the grid folded into the last bin;
* **max** — exact under independence of the remainders:
  ``P(max = t_k) = F_a(t_k) F_b(t_k) - F_a(t_{k-1}) F_b(t_{k-1})``,
  with the sensitivity vectors blended by the lattice tightness
  ``P(A >= B)`` exactly as Clark blends them.

The final distribution convolves the remainder histogram with the
Gaussian the sensitivity vector implies, giving a piecewise-constant
density with no Gaussian re-approximation of the max itself.  The
propagation is a single-process pure-NumPy pass with no randomness, so
results are bitwise identical across reruns and worker counts for a
pinned bin count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy.special import ndtr

from ..circuit.netlist import Circuit
from ..errors import EngineError
from ..telemetry import get_telemetry
from ..timing.graph import TimingConfig, TimingView
from ..timing.ssta import gate_delay_canonicals
from ..variation.model import VariationModel
from .base import (
    HistogramDelay,
    TimingEngine,
    TimingResult,
    summarize_endpoint,
)

#: Lattice reach of a discretized Gaussian, in standard deviations.
SIGMA_SPAN = 8.0

#: Default lattice resolution (bins) when the caller does not pin one.
DEFAULT_BINS = 256

#: Lattice state of one arrival: (global sensitivity vector, remainder pmf).
LatticeState = Tuple[np.ndarray, np.ndarray]


def validate_bins(bins: object) -> int:
    """Check a user-supplied bin count, raising a typed error on misuse."""
    if isinstance(bins, bool) or not isinstance(bins, int):
        raise EngineError(f"bins must be an integer, got {bins!r}")
    if not 2 <= bins <= 65536:
        raise EngineError(f"bins must be in [2, 65536], got {bins}")
    return bins


def _gaussian_lattice_pmf(
    mean: float, sigma: float, w: float, n_bins: int, k0: int = 0
) -> np.ndarray:
    """Discretize ``N(mean, sigma^2)`` onto lattice points ``(k + k0) w``.

    Bin ``k`` receives the Gaussian mass of ``[(k+k0-1/2) w, (k+k0+1/2) w)``;
    the tails beyond the grid fold into the end bins so total mass stays
    exactly one.  A zero-sigma input degrades to a point mass at the
    nearest lattice point.
    """
    if sigma == 0.0:  # lint: ignore[RPR402] exact zero is the point-mass degenerate edge
        pmf = np.zeros(n_bins)
        k = int(np.clip(round(mean / w) - k0, 0, n_bins - 1))
        pmf[k] = 1.0
        return pmf
    edges = (np.arange(n_bins + 1) + (k0 - 0.5)) * w
    cdf = np.asarray(ndtr((edges - mean) / sigma))
    pmf = np.diff(cdf)
    pmf[0] += cdf[0]
    pmf[-1] += 1.0 - cdf[-1]
    return pmf / pmf.sum()


def _lattice_sum(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Exact lattice convolution, tail mass folded into the last bin."""
    conv = np.convolve(pa, pb)
    n = pa.size
    out = conv[:n]
    if conv.size > n:
        out[n - 1] += conv[n:].sum()
    return out / out.sum()


def _lattice_max(
    pa: np.ndarray, pb: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Exact max of independent lattice variables, plus ``P(A >= B)``.

    The joint CDF of the max is the product of the marginals' CDFs; its
    lattice increments are the max's pmf.  The tightness splits lattice
    ties evenly — ``P(A > B) + P(A = B) / 2`` — so two identical
    operands report exactly 0.5 regardless of bin coarseness (ties have
    finite mass on a lattice, unlike the continuous Clark case).
    """
    fa = np.cumsum(pa)
    fb = np.cumsum(pb)
    joint = fa * fb
    pmf = np.diff(joint, prepend=0.0)
    np.maximum(pmf, 0.0, out=pmf)
    tightness = float(np.clip(pa @ (fb - 0.5 * pb), 0.0, 1.0))
    return pmf / pmf.sum(), tightness


def _max_state(
    acc: LatticeState, other: LatticeState
) -> Tuple[LatticeState, float]:
    """Tightness-blended lattice max of two arrival states."""
    sens_a, pmf_a = acc
    sens_b, pmf_b = other
    pmf, tightness = _lattice_max(pmf_a, pmf_b)
    sens = tightness * sens_a + (1.0 - tightness) * sens_b
    return (sens, pmf), tightness


@dataclass(frozen=True)
class LatticePropagation:
    """Output of one lattice propagation pass (pre-smoothing)."""

    bin_width: float
    n_bins: int
    po_indices: Tuple[int, ...]
    po_states: Tuple[LatticeState, ...]
    circuit_state: LatticeState
    #: P(endpoint k attains the circuit max), from the PO fold.
    po_shares: np.ndarray


def lattice_upper_bound(view: TimingView, varmodel: VariationModel) -> float:
    """Cheap propagated bound on every remainder arrival.

    ``ub_i = max(fanin ub) + mean_i + SIGMA_SPAN * indep_i`` bounds the
    remainder (mean + accumulated independent randomness) along every
    path, so one global grid ``[0, max ub]`` holds all node histograms.
    """
    delays = gate_delay_canonicals(view, varmodel)
    bound: List[float] = [0.0] * view.n_gates
    fanin_lists = [f.tolist() for f in view.fanin_gates]
    for i in range(view.n_gates):
        c = delays[i]
        base = max((bound[j] for j in fanin_lists[i]), default=0.0)
        bound[i] = base + c.mean + SIGMA_SPAN * c.indep
    return max(bound, default=0.0)


def propagate_lattice(
    view: TimingView,
    varmodel: VariationModel,
    bins: int,
    grid_ub: Optional[float] = None,
) -> LatticePropagation:
    """Levelized lattice propagation over one circuit.

    ``grid_ub`` pins the lattice's upper bound — the pipeline workload
    passes a shared bound so every stage lands on one common grid; by
    default the circuit's own propagated bound is used.
    """
    tele = get_telemetry()
    delays = gate_delay_canonicals(view, varmodel)
    n = view.n_gates
    ub = grid_ub if grid_ub is not None else lattice_upper_bound(view, varmodel)
    if ub <= 0.0:
        # Zero-delay circuit: every mass sits at lattice point 0 and the
        # arbitrary scale below never shifts it.
        ub = 1.0
    w = ub / (bins - 1)
    fanin_lists = [f.tolist() for f in view.fanin_gates]
    states: List[LatticeState] = [None] * n  # type: ignore[list-item]
    with tele.span("engine.histogram.convolve", gates=n, bins=bins):
        for i in range(n):
            c = delays[i]
            gate_pmf = _gaussian_lattice_pmf(c.mean, c.indep, w, bins)
            fanins = fanin_lists[i]
            if not fanins:
                states[i] = (c.sens, gate_pmf)
                continue
            acc = states[fanins[0]]
            for j in fanins[1:]:
                acc, _ = _max_state(acc, states[j])
            sens, pmf = acc
            states[i] = (sens + c.sens, _lattice_sum(pmf, gate_pmf))
        po = [int(i) for i in view.primary_output_indices()]
        po_shares = np.ones(len(po))
        sink = states[po[0]]
        for k in range(1, len(po)):
            sink, tightness = _max_state(sink, states[po[k]])
            po_shares[:k] *= tightness
            po_shares[k] = 1.0 - tightness
    return LatticePropagation(
        bin_width=w,
        n_bins=bins,
        po_indices=tuple(po),
        po_states=tuple(states[i] for i in po),
        circuit_state=sink,
        po_shares=po_shares,
    )


def finish_state(
    state: LatticeState, w: float, k0: int = 0
) -> HistogramDelay:
    """Fold the global-sensitivity Gaussian back into the lattice pmf.

    The full distribution is ``remainder + sens . z`` with ``z`` iid
    standard normal, i.e. the remainder histogram convolved with a
    centered Gaussian of sigma ``||sens||`` — discretized on the same
    lattice extended to negative offsets.  ``k0`` names the lattice
    offset of ``pmf[0]`` (the pipeline fold works on an extended grid).
    A variance-free state degrades to an exact point mass, so
    downstream yield queries return 0 or 1, never NaN.
    """
    tele = get_telemetry()
    sens, pmf = state
    with tele.span("engine.histogram.finish", bins=pmf.size):
        g = math.sqrt(float(sens @ sens))
        if g == 0.0:  # lint: ignore[RPR402] exact zero means no global part to convolve in
            support = np.flatnonzero(pmf > 0.0)
            if support.size == 1:
                point = float(int(support[0]) + k0) * w
                return HistogramDelay(
                    values=np.array([point]), pmf=np.array([1.0])
                )
            values = (np.arange(pmf.size) + k0) * w
            return HistogramDelay(values=values, pmf=pmf)
        half = int(math.ceil(SIGMA_SPAN * g / w)) + 1
        gauss = _gaussian_lattice_pmf(0.0, g, w, 2 * half + 1, k0=-half)
        conv = np.convolve(pmf, gauss)
        values = (np.arange(conv.size) - half + k0) * w
        return HistogramDelay(values=values, pmf=conv / conv.sum())


class HistogramEngine(TimingEngine):
    """Piecewise-constant-density SSTA on a fixed lattice."""

    name = "histogram"
    accepted_params = ("bins", "n_jobs")

    def analyze(
        self,
        circuit_or_view: Circuit | TimingView,
        varmodel: VariationModel,
        config: Optional[TimingConfig] = None,
        **params: object,
    ) -> TimingResult:
        """Propagate lattice densities and report the smoothed result.

        ``bins`` pins the lattice resolution (default ``DEFAULT_BINS``);
        results are bitwise deterministic per bin count.  ``n_jobs`` is
        accepted for interface uniformity and ignored — the propagation
        is a single sequential pass, which is exactly what makes the
        determinism guarantee trivial.
        """
        self._check_params(params)
        bins = validate_bins(params.get("bins", DEFAULT_BINS))
        view = self._view_of(circuit_or_view, config)
        tele = get_telemetry()
        with tele.span("engine.histogram.run", gates=view.n_gates, bins=bins):
            lattice = propagate_lattice(view, varmodel, bins)
            w = lattice.bin_width
            endpoints = tuple(
                summarize_endpoint(idx, finish_state(state, w))
                for idx, state in zip(lattice.po_indices, lattice.po_states)
            )
            max_delay = finish_state(lattice.circuit_state, w)
        return TimingResult(
            engine=self.name,
            max_delay=max_delay,
            endpoints=endpoints,
            n_gates=view.n_gates,
            params={"bins": bins},
            raw=lattice,
        )
