"""Per-gate variation model — the shared randomness of the whole library.

:class:`VariationModel` ties together a :class:`~repro.variation.parameters.
VariationSpec`, a :class:`~repro.variation.spatial.SpatialCorrelationModel`,
and a gate -> grid-cell assignment, and exposes one canonical factorization
used *identically* by SSTA, analytic statistical leakage, and Monte Carlo:

    delta_l[g]    = L_load[g]  . z + sigma_l_random    * r_l[g]
    delta_vth0[g] = V_load[g]  . z + sigma_vth_random  * r_v[g]

with ``z ~ N(0, I_k)`` the shared **global factors** (inter-die L, inter-die
Vth, then the spatial principal components) and ``r`` per-gate independent
standard normals.  Because timing and leakage read the same loadings, their
statistical correlation — the reason a fast, leaky die is also the die most
likely to meet timing — is preserved by construction.

Random dopant fluctuation physically scales as ``1/sqrt(device area)``, so
the independent Vth sigma can optionally be de-rated for upsized gates via
``relative_area`` arguments.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import VariationError
from .parameters import VariationSpec
from .spatial import SpatialCorrelationModel


class VariationModel:
    """Canonical per-gate factorization of process variation.

    Parameters
    ----------
    spec:
        Sigma magnitudes and variance splits.
    n_gates:
        Number of gates in the circuit.
    gate_cells:
        Optional ``(n_gates,)`` integer array mapping each gate to a grid
        cell of ``spatial``.  Required when the spec has a nonzero spatial
        fraction.
    spatial:
        The grid correlation model.  Built automatically (unit die) when a
        spatial fraction is nonzero and none is supplied together with
        ``gate_cells`` — but normally the placement step supplies both.
    """

    def __init__(
        self,
        spec: VariationSpec,
        n_gates: int,
        gate_cells: Optional[np.ndarray] = None,
        spatial: Optional[SpatialCorrelationModel] = None,
    ) -> None:
        if n_gates < 1:
            raise VariationError(f"n_gates must be >= 1, got {n_gates}")
        self.spec = spec
        self.n_gates = n_gates
        needs_spatial = spec.sigma_l_spatial > 0 or spec.sigma_vth_spatial > 0
        if needs_spatial:
            if spatial is None or gate_cells is None:
                raise VariationError(
                    "spec has a spatial variance component: supply both "
                    "`spatial` and `gate_cells` (run placement first)"
                )
            gate_cells = np.asarray(gate_cells, dtype=int)
            if gate_cells.shape != (n_gates,):
                raise VariationError(
                    f"gate_cells shape {gate_cells.shape} != ({n_gates},)"
                )
            if gate_cells.min() < 0 or gate_cells.max() >= spatial.n_cells:
                raise VariationError("gate_cells contains out-of-range cell indices")
        self.spatial = spatial if needs_spatial else None
        self.gate_cells = gate_cells if needs_spatial else None

        n_pc = self.spatial.n_factors if self.spatial is not None else 0
        use_l_pc = spec.sigma_l_spatial > 0
        use_v_pc = spec.sigma_vth_spatial > 0
        self.n_globals = 2 + (n_pc if use_l_pc else 0) + (n_pc if use_v_pc else 0)

        l_load = np.zeros((n_gates, self.n_globals))
        v_load = np.zeros((n_gates, self.n_globals))
        l_load[:, 0] = spec.sigma_l_inter
        v_load[:, 1] = spec.sigma_vth_inter
        col = 2
        if use_l_pc:
            assert self.spatial is not None and self.gate_cells is not None
            cell_loads = self.spatial.loadings[self.gate_cells]  # (n_gates, n_pc)
            l_load[:, col : col + n_pc] = spec.sigma_l_spatial * cell_loads
            col += n_pc
        if use_v_pc:
            assert self.spatial is not None and self.gate_cells is not None
            cell_loads = self.spatial.loadings[self.gate_cells]
            v_load[:, col : col + n_pc] = spec.sigma_vth_spatial * cell_loads
            col += n_pc

        # Read-only, so a model is the same model for as long as it lives.
        l_load.flags.writeable = False
        v_load.flags.writeable = False
        #: ``(n_gates, n_globals)`` loadings of delta_l on the global factors.
        self.l_loadings = l_load
        #: ``(n_gates, n_globals)`` loadings of delta_vth0 on the global factors.
        self.vth_loadings = v_load
        #: Independent (per-gate white) sigma of delta_l [m].
        self.l_indep = spec.sigma_l_random
        #: Independent sigma of delta_vth0 at reference device area [V].
        self.vth_indep = spec.sigma_vth_random
        self._built = True

    def __setattr__(self, name: str, value: object) -> None:
        # Immutable once built, like its loading arrays: SSTA's reuse
        # compares models by identity.
        if "_built" in self.__dict__:
            raise VariationError(f"a VariationModel is immutable; cannot set {name!r}")
        super().__setattr__(name, value)

    # -- derived queries ---------------------------------------------------------

    def vth_indep_for(self, relative_area: np.ndarray | float = 1.0) -> np.ndarray:
        """Per-gate independent Vth sigma, de-rated by device area.

        ``sigma_rdf ~ 1/sqrt(area)``: a gate upsized 4x sees half the RDF
        noise.  ``relative_area`` is the gate's device area relative to the
        unit cell (its drive size, for a fixed-height library).
        """
        rel = np.asarray(relative_area, dtype=float)
        # One reduction; fmin skips NaN, so a NaN area passes through.
        if np.fmin.reduce(rel, axis=None, initial=np.inf) <= 0:
            raise VariationError("relative_area must be positive")
        # Into one (n_gates,) array: a scalar area broadcasts, a wrong
        # length raises.
        return np.divide(self.vth_indep, np.sqrt(rel), out=np.empty(self.n_gates))

    def l_correlation(self, gate_a: int, gate_b: int) -> float:
        """Model correlation of delta_l between two gates."""
        num = float(self.l_loadings[gate_a] @ self.l_loadings[gate_b])
        var_a = float(self.l_loadings[gate_a] @ self.l_loadings[gate_a]) + self.l_indep**2
        var_b = float(self.l_loadings[gate_b] @ self.l_loadings[gate_b]) + self.l_indep**2
        if gate_a == gate_b:
            num = var_a
        if var_a == 0 or var_b == 0:
            return 0.0
        return num / np.sqrt(var_a * var_b)

    # -- Monte Carlo ---------------------------------------------------------------

    @property
    def n_normals(self) -> int:
        """Width of the standard-normal input block one die consumes.

        Layout (fixed regardless of which sigmas are zero, so quasi-MC
        point sets keep a stable dimension assignment): the ``n_globals``
        shared factors first — the low indices, where low-discrepancy
        sequences are best — then the per-gate independent L draws, then
        the per-gate independent Vth draws.
        """
        return self.n_globals + 2 * self.n_gates

    def sample_from_normals(
        self,
        normals: np.ndarray,
        relative_area: np.ndarray | float = 1.0,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Map caller-supplied standard normals through the factorization.

        ``normals`` is ``(n_samples, n_normals)`` in the layout documented
        on :attr:`n_normals`.  This is the deterministic half of
        :meth:`sample` with the drawing externalized: quasi-Monte-Carlo
        point sets and shifted importance-sampling proposals feed their
        own (transformed) normals through the *same* loadings, so every
        estimator sees the identical variation physics.
        """
        normals = np.asarray(normals, dtype=float)
        if normals.ndim != 2 or normals.shape[1] != self.n_normals:
            raise VariationError(
                f"normals must have shape (n, {self.n_normals}), "
                f"got {normals.shape}"
            )
        k = self.n_globals
        g = self.n_gates
        z = normals[:, :k]
        r_l = normals[:, k : k + g]
        r_v = normals[:, k + g :]
        delta_l = z @ self.l_loadings.T
        if self.l_indep > 0:
            delta_l = delta_l + self.l_indep * r_l
        delta_v = z @ self.vth_loadings.T
        v_indep = self.vth_indep_for(relative_area)
        if np.any(v_indep > 0):
            delta_v = delta_v + v_indep * r_v
        return z, delta_l, delta_v

    def sample(
        self,
        n_samples: int,
        rng: np.random.Generator,
        relative_area: np.ndarray | float = 1.0,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw joint process samples for every gate.

        Returns ``(z, delta_l, delta_vth0)`` with shapes
        ``(n_samples, n_globals)``, ``(n_samples, n_gates)``,
        ``(n_samples, n_gates)``.  Exposing ``z`` lets callers evaluate
        timing and leakage on the *same* dies.
        """
        if n_samples < 1:
            raise VariationError(f"n_samples must be >= 1, got {n_samples}")
        z = rng.standard_normal((n_samples, self.n_globals))
        delta_l = z @ self.l_loadings.T
        if self.l_indep > 0:
            delta_l = delta_l + self.l_indep * rng.standard_normal(
                (n_samples, self.n_gates)
            )
        delta_v = z @ self.vth_loadings.T
        v_indep = self.vth_indep_for(relative_area)
        if np.any(v_indep > 0):
            delta_v = delta_v + v_indep * rng.standard_normal(
                (n_samples, self.n_gates)
            )
        return z, delta_l, delta_v
