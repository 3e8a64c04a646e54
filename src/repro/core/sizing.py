"""Delay-driven gate sizing (TILOS-flavoured).

Used to establish the minimum-delay reference ``Dmin`` every constraint is
expressed against (the paper's "Tmax = 1.1x minimum delay"), and as the
initial, delay-feasible implementation both optimizers start from.

The algorithm is the classic sensitivity greedy: run STA, walk the gates
on (or near) the critical path, estimate each one-step upsize's effect on
the path delay *locally* (own-delay reduction minus the slowdown it causes
its fanin drivers through added load), apply the batch of clearly-helpful
upsizes, re-run STA, repeat.  If a batch overshoots (load interactions),
the pass is rolled back and only the single best move is kept; convergence
is declared when not even that helps.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import OptimizationError
from ..tech.corners import ProcessCorner
from ..timing.graph import TimingView
from ..timing.sta import run_sta

#: Slack window (as a fraction of circuit delay) around the critical path
#: inside which gates are considered for upsizing.
_NEAR_CRITICAL_WINDOW = 0.02

#: Convergence: a pass must improve circuit delay by at least this
#: fraction to keep iterating.
_MIN_IMPROVEMENT = 1e-4


def upsize_effects(
    view: TimingView,
    index: np.ndarray,
    new_sizes: np.ndarray,
    new_codes: np.ndarray,
) -> np.ndarray:
    """Local estimate of the circuit-delay change from resizing each gate
    of ``index`` to ``new_sizes`` (grid positions ``new_codes``, ``-1``
    off the grid), one gate at a time.

    Negative is better.  Sum of (a) the gate's own delay change (slope
    shrinks with size; intrinsic is size-independent in this library) and
    (b) the fanin drivers' delay change from the input-capacitance delta.
    Both terms assume loads and the rest of the circuit stay put — the
    standard TILOS locality approximation, checked globally by the STA
    re-run each pass.

    Coefficients and input caps at both sizes are gathered from the
    library's tables, loads from :meth:`TimingView.load_caps`; each term
    is the scalar formula's, in its order, and the fanin term accumulates
    from 0.0 one fanin column at a time, in pin order.  Nothing is
    written: the state (and its version) stays as it is.
    """
    state, tables = view.state, view.library.tables
    cells, vths = state.cells[index], state.vths[index]
    sizes, codes = state.sizes[index], state.size_codes[index]
    biases = state.length_biases[index]
    intrinsic_old, slope_old = tables.delay_coefficients(
        cells, vths, codes, sizes, biases
    )
    intrinsic_new, slope_new = tables.delay_coefficients(
        cells, vths, new_codes, new_sizes, biases
    )
    load = view.load_caps()[index]
    own = (intrinsic_new - intrinsic_old) + (slope_new - slope_old) * load
    new_caps = tables.input_caps(cells, new_codes, new_sizes)
    delta_cap = new_caps - tables.input_caps(cells, codes, sizes)
    counts = view.fanin_counts[index]
    starts = (np.cumsum(view.fanin_counts) - view.fanin_counts)[index]
    fanin_effect = np.zeros(index.size)
    for j in range(counts.max(initial=0)):
        rows = np.flatnonzero(counts > j)
        _, slope_f = view.coefficients(view.fanin_targets[starts[rows] + j])
        fanin_effect[rows] += slope_f * delta_cap[rows]
    return own + fanin_effect


def upsize_effect(view: TimingView, index: int, new_size: float) -> float:
    """:func:`upsize_effects` of resizing one gate to ``new_size``."""
    new_code = view.library.size_code(new_size)
    return upsize_effects(
        view,
        np.array([index], dtype=np.intp),
        np.array([new_size], dtype=float),
        np.array([new_code], dtype=np.intp),
    ).item()


def _helpful_upsizes(view: TimingView, sta) -> List[Tuple[float, int, float]]:
    """(effect, gate index, new size) for near-critical helpful upsizes,
    sorted.

    One :func:`upsize_effects` pass over every near-critical gate with a
    grid step up.  A gate on the grid steps to the next grid position; a
    size off the grid asks :meth:`Library.next_size_up`, gate by gate in
    index order, which raises unless the size is within tolerance of a
    grid size.
    """
    window = sta.circuit_delay * _NEAR_CRITICAL_WINDOW
    index = np.flatnonzero(sta.slacks <= window)
    library, state = view.library, view.state
    new_codes = state.size_codes[index] + 1
    for k in np.flatnonzero(new_codes == 0).tolist():
        bigger = library.next_size_up(state.sizes.item(index[k]))
        new_codes[k] = (
            len(library.sizes) if bigger is None else library.size_code(bigger)
        )
    steps = new_codes < len(library.sizes)
    index, new_codes = index[steps], new_codes[steps]
    new_sizes = library.tables.grid[new_codes]
    effects = upsize_effects(view, index, new_sizes, new_codes)
    helpful = effects < 0.0
    effects, index, new_sizes = effects[helpful], index[helpful], new_sizes[helpful]
    order = np.lexsort((new_sizes, index, effects))
    return list(
        zip(effects[order].tolist(), index[order].tolist(), new_sizes[order].tolist())
    )


def minimize_delay(
    view: TimingView,
    corner: Optional[ProcessCorner] = None,
    max_passes: int = 200,
) -> float:
    """Size the circuit for (near-)minimum delay; returns the delay reached.

    Sizes are mutated in place (Vth flavours untouched).  The delay is
    measured at ``corner`` when given (the deterministic flow's reference)
    or at nominal otherwise.
    """
    if max_passes < 1:
        raise OptimizationError(f"max_passes must be >= 1, got {max_passes}")
    best = run_sta(view, corner=corner)
    for _ in range(max_passes):
        moves = _helpful_upsizes(view, best)
        if not moves:
            break
        snapshot = [(idx, view.gates[idx].size) for _, idx, _ in moves]
        for _, idx, new_size in moves:
            view.gates[idx].size = new_size
        current = run_sta(view, corner=corner)
        if current.circuit_delay <= best.circuit_delay * (1.0 - _MIN_IMPROVEMENT):
            best = current
            continue
        # Batch overshot or plateaued: roll back, keep only the best move.
        for idx, old_size in snapshot:
            view.gates[idx].size = old_size
        _, idx, new_size = moves[0]
        view.gates[idx].size = new_size
        current = run_sta(view, corner=corner)
        if current.circuit_delay <= best.circuit_delay * (1.0 - _MIN_IMPROVEMENT):
            best = current
            continue
        view.gates[idx].size = snapshot[0][1]  # moves[0] pairs with snapshot[0]
        break
    return float(best.circuit_delay)
