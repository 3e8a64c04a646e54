"""Reference implementations of the statistical-leakage kernels (test oracle).

These are the loops the leakage layer ran before the grouped closed form
and the batched gate-current kernel replaced them, kept verbatim in
operation order:

* :func:`sum_of_lognormals` accumulates ``E[S^2]`` over the full
  ``n x n`` covariance in row blocks and subtracts ``E[S]^2``;
* :func:`gate_leakage_currents` calls :meth:`Cell.leakage` gate by gate,
  walking each gate's ``2**n`` input states in Python;
* :func:`grouped_sum_of_lognormals` is the grouped closed form as one
  function, regrouping the loading rows on every call -- what
  :class:`~repro.variation.lognormal.LognormalSum` prepares once.  The
  prepared sum is held to it bit for bit.

The gate-current kernel is held to the loop bit for bit; the moments
agree on the mean bit for bit and on the spread to rounding (the
reference's cancellation costs it about ``eps / cv**2``).
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

import numpy as np

from repro.circuit.netlist import Circuit
from repro.errors import VariationError
from repro.power.probability import signal_probabilities
from repro.tech.corners import ProcessCorner
from repro.variation.lognormal import (
    LognormalSummary,
    loading_groups,
    lognormal_params_from_moments,
)

#: Row block edge of the ``O(n^2)`` covariance accumulation.
_BLOCK: int = 512


def sum_of_lognormals(
    log_means: np.ndarray,
    global_loadings: np.ndarray,
    indep_sigmas: np.ndarray,
) -> LognormalSummary:
    """Exact moments of ``sum_i exp(G_i)`` from the blocked double sum."""
    log_means = np.asarray(log_means, dtype=float)
    global_loadings = np.atleast_2d(np.asarray(global_loadings, dtype=float))
    indep_sigmas = np.asarray(indep_sigmas, dtype=float)
    n = log_means.shape[0]
    if n == 0:
        raise VariationError("empty lognormal sum")
    if global_loadings.shape[0] != n or indep_sigmas.shape[0] != n:
        raise VariationError(
            "shape mismatch: "
            f"{log_means.shape}, {global_loadings.shape}, {indep_sigmas.shape}"
        )

    var_i = np.einsum("ij,ij->i", global_loadings, global_loadings) + indep_sigmas**2
    means = np.exp(log_means + 0.5 * var_i)
    total_mean = float(means.sum())

    total_second = 0.0  # sum_ij E[Xi Xj]
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        # c_block[b, j] = L_{start+b} . L_j
        c_block = global_loadings[start:stop] @ global_loadings.T
        block_idx = np.arange(start, stop)
        c_block[np.arange(stop - start), block_idx] += indep_sigmas[start:stop] ** 2
        total_second += float(means[start:stop] @ np.exp(c_block) @ means)

    variance = max(total_second - total_mean * total_mean, 0.0)
    mu, sigma = lognormal_params_from_moments(total_mean, variance)
    return LognormalSummary(mean=total_mean, std=math.sqrt(variance), mu=mu, sigma=sigma)


def grouped_sum_of_lognormals(
    log_means: np.ndarray,
    global_loadings: np.ndarray,
    indep_sigmas: np.ndarray,
) -> LognormalSummary:
    """Exact moments of ``sum_i exp(G_i)``, summed over the groups of
    equal loading rows."""
    log_means = np.asarray(log_means, dtype=float)
    global_loadings = np.atleast_2d(np.asarray(global_loadings, dtype=float))
    indep_sigmas = np.asarray(indep_sigmas, dtype=float)
    n = log_means.shape[0]
    if n == 0:
        raise VariationError("empty lognormal sum")
    if global_loadings.shape[0] != n or indep_sigmas.shape[0] != n:
        raise VariationError(
            "shape mismatch: "
            f"{log_means.shape}, {global_loadings.shape}, {indep_sigmas.shape}"
        )

    var_i = np.einsum("ij,ij->i", global_loadings, global_loadings) + indep_sigmas**2
    means = np.exp(log_means + 0.5 * var_i)
    total_mean = float(means.sum())

    first, inverse = loading_groups(global_loadings)
    group_rows = global_loadings[first]
    gram = group_rows @ group_rows.T
    group_means = np.bincount(inverse, weights=means, minlength=first.shape[0])
    shared = float(group_means @ np.expm1(gram) @ group_means)
    own = np.exp(np.diagonal(gram))[inverse] * np.expm1(indep_sigmas**2)
    variance = max(shared + float(means**2 @ own), 0.0)
    mu, sigma = lognormal_params_from_moments(total_mean, variance)
    return LognormalSummary(mean=total_mean, std=math.sqrt(variance), mu=mu, sigma=sigma)


def gate_leakage_currents(
    circuit: Circuit,
    probs: Optional[Mapping[str, float]] = None,
    corner: Optional[ProcessCorner] = None,
) -> np.ndarray:
    """Mean leakage current of every gate [A], one ``Cell.leakage`` call each."""
    circuit.freeze()
    if probs is None:
        probs = signal_probabilities(circuit)
    delta_l = corner.delta_l if corner is not None else 0.0
    delta_v = corner.delta_vth0 if corner is not None else 0.0
    currents = np.empty(circuit.n_gates)
    for gate in circuit.indexed_gates():
        currents[circuit.gate_index(gate.name)] = circuit.cell_of(gate).leakage(
            gate.size, gate.vth, [probs[f] for f in gate.fanins],
            delta_l=delta_l + gate.length_bias, delta_vth0=delta_v,
        )
    return currents
