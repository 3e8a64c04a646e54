"""Gate placement onto the die (substrate S6).

Spatially-correlated intra-die variation only means something once gates
have coordinates.  This module provides a lightweight placer — not a
quality placer, just one with the property that matters for variation
modeling: **topologically-close gates end up physically close**, so logic
cones see correlated process shifts, exactly as placed netlists do.

``topological`` placement snakes gates across the die in topological order
(connected gates are usually near each other in that order); ``random``
placement scatters them uniformly and is the control case used by the
correlation-ablation experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import PlacementError
from ..variation.model import VariationModel
from ..variation.parameters import VariationSpec
from ..variation.spatial import SpatialCorrelationModel
from .netlist import Circuit

#: Default die edge [m]; chosen commensurate with the default correlation
#: length so the die spans a couple of correlation lengths.
DEFAULT_DIE_SIZE: float = 2.0e-3


@dataclass(frozen=True)
class Placement:
    """Gate coordinates on the die, in dense (topological) gate order."""

    die_size: float
    positions: np.ndarray  # (n_gates, 2) [m]

    def __post_init__(self) -> None:
        if self.die_size <= 0:
            raise PlacementError(f"die size must be positive, got {self.die_size}")
        pos = self.positions
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise PlacementError(f"positions must be (n, 2), got {pos.shape}")
        if pos.min() < 0 or pos.max() > self.die_size:
            raise PlacementError("positions fall outside the die")

    @property
    def n_gates(self) -> int:
        """Number of placed gates."""
        return self.positions.shape[0]

    def cells(self, spatial: SpatialCorrelationModel) -> np.ndarray:
        """Grid-cell index of each gate under a spatial model."""
        return np.array(
            [spatial.cell_of_position(x, y) for x, y in self.positions], dtype=int
        )


def place_circuit(
    circuit: Circuit,
    die_size: float = DEFAULT_DIE_SIZE,
    method: str = "topological",
    seed: int = 0,
) -> Placement:
    """Assign die coordinates to every gate.

    ``topological``: serpentine row-major sweep in topological order —
    cheap, deterministic, and locality-preserving.  ``random``: uniform
    scatter (seeded).
    """
    n = circuit.n_gates
    if n < 1:
        raise PlacementError("cannot place an empty circuit")
    if method == "random":
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0.0, die_size, size=(n, 2))
        return Placement(die_size=die_size, positions=positions)
    if method != "topological":
        raise PlacementError(f"unknown placement method {method!r}")

    side = int(np.ceil(np.sqrt(n)))
    pitch = die_size / side
    positions = np.empty((n, 2))
    for idx in range(n):
        row, col = divmod(idx, side)
        if row % 2 == 1:
            col = side - 1 - col  # serpentine keeps consecutive gates adjacent
        positions[idx, 0] = (col + 0.5) * pitch
        positions[idx, 1] = (row + 0.5) * pitch
    return Placement(die_size=die_size, positions=positions)


def build_variation_model(
    circuit: Circuit,
    spec: VariationSpec,
    die_size: float = DEFAULT_DIE_SIZE,
    placement: Optional[Placement] = None,
    placement_method: str = "topological",
) -> VariationModel:
    """One-call bridge: place the circuit and build its variation model.

    This is the constructor the examples and benchmarks use — it wires the
    spatial grid, the placement, and the per-gate loadings together so SSTA
    and statistical leakage share identical randomness.
    """
    circuit.freeze()
    needs_spatial = spec.sigma_l_spatial > 0 or spec.sigma_vth_spatial > 0
    if not needs_spatial:
        return VariationModel(spec, circuit.n_gates)
    if placement is None:
        placement = place_circuit(circuit, die_size, method=placement_method)
    if placement.n_gates != circuit.n_gates:
        raise PlacementError(
            f"placement covers {placement.n_gates} gates, circuit has {circuit.n_gates}"
        )
    spatial = SpatialCorrelationModel(
        grid_dim=spec.grid_dim,
        die_size=placement.die_size,
        correlation_length=spec.correlation_length,
    )
    return VariationModel(
        spec,
        circuit.n_gates,
        gate_cells=placement.cells(spatial),
        spatial=spatial,
    )
