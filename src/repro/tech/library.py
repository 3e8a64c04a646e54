"""Dual-Vth standard-cell library.

This module plays the role of the characterized ``.lib`` the paper's flow
would read: every cell exists in a LOW-Vth and a HIGH-Vth flavour and in a
range of drive sizes, with delay, input capacitance, output parasitics and
**state-dependent leakage** all derived from the analytic device model in
:mod:`repro.tech.device` (our substitute for SPICE characterization).

Modeling conventions
--------------------
* Transistor widths inside a template are *stack-compensated* so the
  worst-case drive resistance of any cell at size ``s`` equals the unit
  inverter's resistance divided by ``s``.  Consequently a single
  :class:`~repro.tech.delay_model.DriveModel` per Vth flavour serves every
  template; templates differ through their logical effort ``g`` (input-cap
  multiplier) and parasitic delay ``p`` (output-cap multiplier).
* Cells are either a single primitive stage (INV, NAND-k, NOR-k, and an
  XOR/XNOR macro stage) or a chain of two stages (BUF = INV+INV,
  AND-k = NAND-k + INV, OR-k = NOR-k + INV).
* Leakage is tabulated per input state using the series/parallel stack
  rules of :mod:`repro.tech.leakage_model` and scales linearly with size.
  The XOR/XNOR macro uses a state-averaged approximation (documented in
  DESIGN.md) because its transmission-gate internals are below this
  model's abstraction level.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

from ..errors import LibraryError
from .delay_model import LN2_FACTOR, DriveModel, build_drive_model
from .device import log_leakage_sensitivities, off_current
from .leakage_model import (
    DEFAULT_STACK_SUPPRESSION,
    parallel_network_leakage,
    series_network_leakage,
)
from .technology import ChannelType, Technology, VthClass

#: Default discrete size grid (multiples of the unit inverter drive).
DEFAULT_SIZES: Tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)

#: Vth flavours by integer code: the code a circuit's state arrays hold
#: and the second axis of every :class:`LibraryTables` table.
VTH_CLASSES: Tuple[VthClass, ...] = tuple(VthClass)
#: Integer code of each Vth flavour (inverse of :data:`VTH_CLASSES`).
VTH_CODES: Dict[VthClass, int] = {vth: code for code, vth in enumerate(VTH_CLASSES)}


class StageTopology(enum.Enum):
    """Primitive CMOS stage structures the leakage/delay rules understand."""

    INVERTER = "inverter"
    SERIES_PULLDOWN = "series_pulldown"  # NAND-like
    SERIES_PULLUP = "series_pullup"  # NOR-like
    XOR_MACRO = "xor_macro"


@dataclass(frozen=True)
class StageSpec:
    """One primitive stage of a cell template."""

    topology: StageTopology
    fanin: int

    def __post_init__(self) -> None:
        if self.fanin < 1:
            raise LibraryError(f"stage fanin must be >= 1, got {self.fanin}")
        if self.topology is StageTopology.INVERTER and self.fanin != 1:
            raise LibraryError("inverter stages have exactly one input")

    @property
    def logical_effort(self) -> float:
        """Input-capacitance multiplier ``g`` relative to the inverter."""
        beta_free = {
            StageTopology.INVERTER: 1.0,
        }
        if self.topology in beta_free:
            return 1.0
        if self.topology is StageTopology.XOR_MACRO:
            return 4.0
        # Effort depends on beta in general; with the simplification of
        # equal-weight averaging used throughout (rise/fall symmetric,
        # beta-matched), the classic beta=2 logical-effort values apply:
        # NAND-k: (k+2)/3, NOR-k: (2k+1)/3.
        if self.topology is StageTopology.SERIES_PULLDOWN:
            return (self.fanin + 2.0) / 3.0
        return (2.0 * self.fanin + 1.0) / 3.0

    @property
    def parasitic_delay(self) -> float:
        """Output-parasitic multiplier ``p`` relative to the inverter."""
        if self.topology is StageTopology.INVERTER:
            return 1.0
        if self.topology is StageTopology.XOR_MACRO:
            return 4.0
        return float(self.fanin)


class CellFunction(enum.Enum):
    """Boolean function families the library ships."""

    INV = "inv"
    BUF = "buf"
    NAND = "nand"
    NOR = "nor"
    AND = "and"
    OR = "or"
    XOR = "xor"
    XNOR = "xnor"


@dataclass(frozen=True)
class CellTemplate:
    """Structural description of a library cell."""

    name: str
    function: CellFunction
    n_inputs: int
    stages: Tuple[StageSpec, ...]

    def __post_init__(self) -> None:
        if self.n_inputs < 1:
            raise LibraryError(f"{self.name}: cells need at least one input")
        if not self.stages:
            raise LibraryError(f"{self.name}: cells need at least one stage")


def evaluate_function(function: CellFunction, inputs: Sequence[bool]) -> bool:
    """Evaluate a cell's Boolean function on concrete input values."""
    if function is CellFunction.INV:
        return not inputs[0]
    if function is CellFunction.BUF:
        return bool(inputs[0])
    if function is CellFunction.NAND:
        return not all(inputs)
    if function is CellFunction.AND:
        return all(inputs)
    if function is CellFunction.NOR:
        return not any(inputs)
    if function is CellFunction.OR:
        return any(inputs)
    parity = sum(1 for v in inputs if v) % 2 == 1
    if function is CellFunction.XOR:
        return parity
    return not parity  # XNOR


def output_probability(function: CellFunction, input_probs: Sequence[float]) -> float:
    """P(output = 1) given independent P(input = 1) values.

    Independence is the classic signal-probability approximation used for
    state-weighted leakage and switching-activity estimation; reconvergent
    fanout makes it approximate, which is acceptable for power *weighting*.
    """
    for p in input_probs:
        if not 0.0 <= p <= 1.0:
            raise LibraryError(f"signal probability out of [0,1]: {p}")
    if function is CellFunction.INV:
        return 1.0 - input_probs[0]
    if function is CellFunction.BUF:
        return float(input_probs[0])
    p_all_one = math.prod(input_probs)
    p_all_zero = math.prod(1.0 - p for p in input_probs)
    if function is CellFunction.AND:
        return p_all_one
    if function is CellFunction.NAND:
        return 1.0 - p_all_one
    if function is CellFunction.OR:
        return 1.0 - p_all_zero
    if function is CellFunction.NOR:
        return p_all_zero
    # XOR / XNOR: fold pairwise.
    p_odd = 0.0
    for p in input_probs:
        p_odd = p_odd * (1.0 - p) + (1.0 - p_odd) * p
    if function is CellFunction.XOR:
        return p_odd
    return 1.0 - p_odd


def _builtin_templates() -> Tuple[CellTemplate, ...]:
    inv = StageSpec(StageTopology.INVERTER, 1)
    templates = [
        CellTemplate("INV", CellFunction.INV, 1, (inv,)),
        CellTemplate("BUF", CellFunction.BUF, 1, (inv, inv)),
    ]
    for k in (2, 3, 4):
        nand = StageSpec(StageTopology.SERIES_PULLDOWN, k)
        nor = StageSpec(StageTopology.SERIES_PULLUP, k)
        templates.append(CellTemplate(f"NAND{k}", CellFunction.NAND, k, (nand,)))
        templates.append(CellTemplate(f"NOR{k}", CellFunction.NOR, k, (nor,)))
        if k <= 3:
            templates.append(CellTemplate(f"AND{k}", CellFunction.AND, k, (nand, inv)))
            templates.append(CellTemplate(f"OR{k}", CellFunction.OR, k, (nor, inv)))
    xor_stage = StageSpec(StageTopology.XOR_MACRO, 2)
    templates.append(CellTemplate("XOR2", CellFunction.XOR, 2, (xor_stage,)))
    templates.append(CellTemplate("XNOR2", CellFunction.XNOR, 2, (xor_stage,)))
    return tuple(templates)


class Cell:
    """A characterized library cell (both Vth flavours, all sizes).

    Instances are created by :class:`Library`; user code queries them for
    input capacitance, delay, and leakage.  All queries take the drive
    ``size`` (a multiple of the unit inverter) and a :class:`VthClass`.
    """

    def __init__(self, template: CellTemplate, library: "Library") -> None:
        self.template = template
        self._lib = library

    # -- identity -----------------------------------------------------------

    @property
    def name(self) -> str:
        """Library cell name, e.g. ``"NAND2"``."""
        return self.template.name

    @property
    def n_inputs(self) -> int:
        """Number of logic inputs."""
        return self.template.n_inputs

    @property
    def function(self) -> CellFunction:
        """The Boolean function family of this cell."""
        return self.template.function

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cell({self.name!r})"

    # -- logic ----------------------------------------------------------------

    def evaluate(self, inputs: Sequence[bool]) -> bool:
        """Boolean output for concrete input values."""
        self._check_arity(len(inputs))
        return evaluate_function(self.template.function, inputs)

    def output_probability(self, input_probs: Sequence[float]) -> float:
        """P(output=1) under independent input probabilities."""
        self._check_arity(len(input_probs))
        return output_probability(self.template.function, input_probs)

    # -- capacitance ----------------------------------------------------------

    def input_cap(self, size: float) -> float:
        """Capacitance presented at each logic input [F]."""
        self._check_size(size)
        g = self.template.stages[0].logical_effort
        return g * self._lib.c_in_unit * size

    def parasitic_cap(self, size: float) -> float:
        """Self-loading (drain junction) capacitance at the output [F]."""
        self._check_size(size)
        p = self.template.stages[-1].parasitic_delay
        return p * self._lib.c_par_unit * size

    # -- delay ----------------------------------------------------------------

    def delay(
        self,
        size: float,
        load_cap: float,
        vth_class: VthClass,
        delta_l: float = 0.0,
        delta_vth0: float = 0.0,
    ) -> float:
        """Propagation delay driving ``load_cap`` [s].

        Multi-stage cells (BUF/AND/OR) chain their internal stages, each at
        the same drive size, with the inter-stage load equal to the next
        stage's input capacitance.
        """
        self._check_size(size)
        if load_cap < 0:
            raise LibraryError(f"load capacitance must be >= 0, got {load_cap}")
        drive = self._lib.drive_model(vth_class)
        total = 0.0
        stages = self.template.stages
        for idx, stage in enumerate(stages):
            parasitic = stage.parasitic_delay * self._lib.c_par_unit * size
            if idx + 1 < len(stages):
                stage_load = stages[idx + 1].logical_effort * self._lib.c_in_unit * size
            else:
                stage_load = load_cap
            r = drive.resistance(size, delta_l, delta_vth0)
            total += LN2_FACTOR * r * (parasitic + stage_load)
        return total

    def nominal_delay_coefficients(self, size: float, vth_class: VthClass) -> Tuple[float, float]:
        """Decompose nominal delay as ``d = intrinsic + r_eff * load_cap``.

        Returns ``(intrinsic_delay [s], effective_resistance [ohm*LN2])`` so
        callers can re-evaluate delay for many loads without re-walking the
        stage chain.  ``delay = intrinsic + slope * load_cap``.
        """
        self._check_size(size)
        drive = self._lib.drive_model(vth_class)
        r = drive.resistance(size)
        intrinsic = 0.0
        stages = self.template.stages
        for idx, stage in enumerate(stages):
            parasitic = stage.parasitic_delay * self._lib.c_par_unit * size
            intrinsic += LN2_FACTOR * r * parasitic
            if idx + 1 < len(stages):
                internal = stages[idx + 1].logical_effort * self._lib.c_in_unit * size
                intrinsic += LN2_FACTOR * r * internal
        slope = LN2_FACTOR * r
        return intrinsic, slope

    # -- leakage ----------------------------------------------------------------

    def leakage_by_state(self, size: float, vth_class: VthClass) -> np.ndarray:
        """Leakage for every input state [A], indexed by the binary input word.

        Index ``i`` encodes the input vector with input 0 as the LSB.
        Scales linearly with size.
        """
        self._check_size(size)
        table = self._lib._state_leakage_table(self.template, vth_class)
        return table * size

    def mean_leakage(
        self,
        size: float,
        vth_class: VthClass,
        input_probs: Sequence[float] | None = None,
    ) -> float:
        """State-probability-weighted leakage [A].

        With ``input_probs`` omitted, all input states are equally likely
        (the standard assumption when no workload is specified).
        """
        table = self.leakage_by_state(size, vth_class)
        n = self.template.n_inputs
        if input_probs is None:
            return float(table.mean())
        self._check_arity(len(input_probs))
        total = 0.0
        for state in range(2**n):
            weight = 1.0
            for bit in range(n):
                p = input_probs[bit]
                weight *= p if (state >> bit) & 1 else (1.0 - p)
            total += weight * table[state]
        return float(total)

    def leakage(
        self,
        size: float,
        vth_class: VthClass,
        input_probs: Sequence[float] | None = None,
        delta_l: float = 0.0,
        delta_vth0: float = 0.0,
    ) -> float:
        """Mean leakage at a process point [A].

        Process deviations scale leakage by ``exp(sL*dL + sV*dVth0)`` with
        the shared log-sensitivities of the device model — the exact
        mechanism that makes leakage lognormal under Gaussian variation.
        """
        base = self.mean_leakage(size, vth_class, input_probs)
        if delta_l == 0.0 and delta_vth0 == 0.0:  # lint: ignore[RPR402] exact zero is the no-deviation fast path, not a tolerance test
            return base
        s_l, s_v = self._lib.log_leakage_sensitivities
        return base * math.exp(s_l * delta_l + s_v * delta_vth0)

    # -- internals ----------------------------------------------------------------

    def _check_arity(self, n: int) -> None:
        if n != self.template.n_inputs:
            raise LibraryError(
                f"{self.name} takes {self.template.n_inputs} inputs, got {n}"
            )

    def _check_size(self, size: float) -> None:
        if size < self._lib.sizes[0] or size > self._lib.sizes[-1]:
            raise LibraryError(
                f"{self.name}: size {size} outside library range "
                f"[{self._lib.sizes[0]}, {self._lib.sizes[-1]}]"
            )


class LibraryTables:
    """Per-(cell, Vth, grid size) characterization tables of a library.

    Every entry is the scalar query's own value at that grid point --
    :meth:`Cell.input_cap`, :meth:`Cell.parasitic_cap`,
    :meth:`Cell.nominal_delay_coefficients`,
    :meth:`Cell.leakage_by_state` (zero-padded to 16 states) and the
    drive models' ``ln R`` sensitivities -- so a gather returns the bits
    the query would.  Cells are indexed by :attr:`Library.cell_ids`, Vth
    flavours by :data:`VTH_CLASSES` code and sizes by grid position.

    The gathers take one entry per element (cell id, Vth code, size code,
    size, ...).  An element whose size code is ``-1`` -- a size that is
    not exactly a grid size -- falls back to the scalar query, which also
    raises :class:`~repro.errors.LibraryError` for a size outside the
    library's range.
    """

    def __init__(self, library: "Library") -> None:
        self.cells: Tuple[Cell, ...] = tuple(library.cells.values())
        #: The size grid, by size code.
        self.grid = np.array(library.sizes)
        n_cells, n_sizes = len(self.cells), len(library.sizes)
        shape = (n_cells, len(VTH_CLASSES), n_sizes)
        self.input_cap = np.empty((n_cells, n_sizes))
        self.parasitic_cap = np.empty((n_cells, n_sizes))
        self.intrinsic = np.empty(shape)
        self.slope = np.empty(shape)
        self.leakage = np.zeros(shape + (16,))
        for c, cell in enumerate(self.cells):
            for s, size in enumerate(library.sizes):
                self.input_cap[c, s] = cell.input_cap(size)
                self.parasitic_cap[c, s] = cell.parasitic_cap(size)
                for v, vth in enumerate(VTH_CLASSES):
                    self.intrinsic[c, v, s], self.slope[c, v, s] = (
                        cell.nominal_delay_coefficients(size, vth)
                    )
                    states = cell.leakage_by_state(size, vth)
                    self.leakage[c, v, s, : states.size] = states
        models = [library.drive_model(vth) for vth in VTH_CLASSES]
        #: Per Vth code: the drive model's ``d ln R / d delta_l`` and
        #: ``d ln R / d delta_vth0``.
        self.d_lnr_d_deltal = np.array([m.d_lnr_d_deltal for m in models])
        self.d_lnr_d_deltavth = np.array([m.d_lnr_d_deltavth for m in models])

    def _off_grid(self, size_codes: np.ndarray) -> list:
        return np.flatnonzero(size_codes < 0).tolist()

    def input_caps(
        self, cells: np.ndarray, size_codes: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray:
        """Input capacitance of each element [F] (see :meth:`Cell.input_cap`)."""
        caps = self.input_cap[cells, size_codes]
        for k in self._off_grid(size_codes):
            caps[k] = self.cells[cells[k]].input_cap(sizes[k])
        return caps

    def parasitic_caps(
        self, cells: np.ndarray, size_codes: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray:
        """Output parasitic capacitance of each element [F] (see
        :meth:`Cell.parasitic_cap`)."""
        caps = self.parasitic_cap[cells, size_codes]
        for k in self._off_grid(size_codes):
            caps[k] = self.cells[cells[k]].parasitic_cap(sizes[k])
        return caps

    def delay_coefficients(
        self,
        cells: np.ndarray,
        vths: np.ndarray,
        size_codes: np.ndarray,
        sizes: np.ndarray,
        length_biases: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(intrinsic, slope)`` of each element, length bias applied.

        A nonzero bias multiplies both by the drive model's resistance
        factor at ``delta_l = bias``, ``1 + x + x**2/2`` with
        ``x = d_lnr_d_deltal * bias`` -- biasing slows the gate exactly
        as a longer channel would.  Elements without a bias are left as
        gathered.
        """
        intrinsic = self.intrinsic[cells, vths, size_codes]
        slope = self.slope[cells, vths, size_codes]
        for k in self._off_grid(size_codes):
            intrinsic[k], slope[k] = self.cells[cells[k]].nominal_delay_coefficients(
                sizes[k], VTH_CLASSES[vths[k]]
            )
        biased = np.flatnonzero(length_biases != 0.0)  # lint: ignore[RPR402] an exact zero bias leaves the coefficients untouched, not a tolerance test
        if biased.size:
            x = self.d_lnr_d_deltal[vths[biased]] * length_biases[biased]
            factor = 1.0 + x + 0.5 * x * x
            intrinsic[biased] *= factor
            slope[biased] *= factor
        return intrinsic, slope

    def leakage_rows(
        self,
        cells: np.ndarray,
        vths: np.ndarray,
        size_codes: np.ndarray,
        sizes: np.ndarray,
        n_states: int,
    ) -> np.ndarray:
        """Each element's :meth:`Cell.leakage_by_state` row, zero-padded to
        ``n_states`` columns [A]."""
        rows = self.leakage[cells, vths, size_codes, :n_states]
        for k in self._off_grid(size_codes):
            cell, vth = self.cells[cells[k]], VTH_CLASSES[vths[k]]
            states = cell.leakage_by_state(sizes[k], vth)
            rows[k] = 0.0
            rows[k, : states.size] = states
        return rows


class Library:
    """A dual-Vth, multi-size standard-cell library bound to a technology.

    Parameters
    ----------
    tech:
        The process the library is characterized for.
    sizes:
        Discrete drive sizes available (multiples of the unit inverter).
        Must be sorted ascending and start at >= 1.
    beta:
        PMOS/NMOS width ratio.  Defaults to the mobility ratio rounded to
        one decimal, which beta-matches rise and fall drive.
    wn_base:
        Unit-inverter NMOS width [m]; defaults to ``2 * tech.wmin``.
    stack_suppression:
        Per-extra-off-device leakage suppression factor for series stacks.
    """

    def __init__(
        self,
        tech: Technology,
        sizes: Sequence[float] = DEFAULT_SIZES,
        beta: float | None = None,
        wn_base: float | None = None,
        stack_suppression: float = DEFAULT_STACK_SUPPRESSION,
    ) -> None:
        if len(sizes) < 2:
            raise LibraryError("library needs at least two drive sizes")
        ordered = tuple(float(s) for s in sizes)
        if list(ordered) != sorted(set(ordered)):
            raise LibraryError(f"sizes must be strictly ascending, got {sizes}")
        if ordered[0] < 1.0:
            raise LibraryError(f"smallest size must be >= 1, got {ordered[0]}")
        self.tech = tech
        self.sizes: Tuple[float, ...] = ordered
        self.beta = beta if beta is not None else round(tech.mobility_n / tech.mobility_p, 1)
        if self.beta <= 0:
            raise LibraryError(f"beta must be positive, got {self.beta}")
        self.wn_base = wn_base if wn_base is not None else 2.0 * tech.wmin
        if self.wn_base < tech.wmin:
            raise LibraryError("unit-inverter NMOS width below technology minimum")
        self.stack_suppression = stack_suppression
        self.wp_base = self.beta * self.wn_base

        self.c_in_unit = tech.gate_cap_per_width * (self.wn_base + self.wp_base)
        self.c_par_unit = tech.junction_cap_per_width * (self.wn_base + self.wp_base)
        self.log_leakage_sensitivities = log_leakage_sensitivities(tech)

        self._drive_models: Dict[VthClass, DriveModel] = {
            vth: build_drive_model(tech, vth, self.wn_base, self.wp_base)
            for vth in VthClass
        }
        self._leakage_tables: Dict[Tuple[str, VthClass], np.ndarray] = {}
        self.cells: Dict[str, Cell] = {
            t.name: Cell(t, self) for t in _builtin_templates()
        }
        #: Dense integer id of each cell (the first axis of :attr:`tables`).
        self.cell_ids: Dict[str, int] = {name: i for i, name in enumerate(self.cells)}
        self._size_codes: Dict[float, int] = {s: i for i, s in enumerate(ordered)}

    # -- queries ----------------------------------------------------------------

    @cached_property
    def tables(self) -> LibraryTables:
        """The characterization tables every batched gather reads (built once)."""
        return LibraryTables(self)

    def size_code(self, size: float) -> int:
        """Grid position of ``size`` when it is exactly a grid size, else -1."""
        return self._size_codes.get(size, -1)

    def cell(self, name: str) -> Cell:
        """Look up a cell by name (e.g. ``"NAND2"``)."""
        try:
            return self.cells[name]
        except KeyError:
            known = ", ".join(sorted(self.cells))
            raise LibraryError(f"unknown cell {name!r}; library has: {known}") from None

    def cell_names(self) -> Tuple[str, ...]:
        """All cell names, sorted."""
        return tuple(sorted(self.cells))

    def drive_model(self, vth_class: VthClass) -> DriveModel:
        """The shared (stack-compensated) drive model for a Vth flavour."""
        return self._drive_models[vth_class]

    def size_index(self, size: float) -> int:
        """Index of ``size`` in the discrete grid (raises if absent)."""
        for idx, s in enumerate(self.sizes):
            if math.isclose(s, size, rel_tol=1e-9):
                return idx
        raise LibraryError(f"size {size} not in library grid {self.sizes}")

    def next_size_up(self, size: float) -> float | None:
        """The next larger grid size, or None at the top of the grid."""
        idx = self.size_index(size)
        return self.sizes[idx + 1] if idx + 1 < len(self.sizes) else None

    def next_size_down(self, size: float) -> float | None:
        """The next smaller grid size, or None at the bottom of the grid."""
        idx = self.size_index(size)
        return self.sizes[idx - 1] if idx > 0 else None

    def fo4_delay(self, vth_class: VthClass = VthClass.LOW) -> float:
        """Fanout-of-4 inverter delay — the node's canonical speed metric [s]."""
        inv = self.cell("INV")
        load = 4.0 * inv.input_cap(1.0) + 4.0 * self.tech.wire_cap_per_fanout
        return inv.delay(1.0, load, vth_class)

    # -- characterization internals ----------------------------------------------

    def _state_leakage_table(self, template: CellTemplate, vth_class: VthClass) -> np.ndarray:
        key = (template.name, vth_class)
        cached = self._leakage_tables.get(key)
        if cached is not None:
            return cached
        n = template.n_inputs
        table = np.zeros(2**n)
        for state in range(2**n):
            bits = [(state >> bit) & 1 == 1 for bit in range(n)]
            table[state] = self._template_state_leakage(template, vth_class, bits)
        self._leakage_tables[key] = table
        return table

    def _template_state_leakage(
        self, template: CellTemplate, vth_class: VthClass, inputs: Sequence[bool]
    ) -> float:
        """Leakage of a template at size 1 for one input state [A]."""
        total = 0.0
        stage_inputs: Sequence[bool] = list(inputs)
        for idx, stage in enumerate(template.stages):
            total += self._stage_state_leakage(stage, vth_class, stage_inputs)
            out = self._stage_output(template, idx, stage_inputs)
            stage_inputs = [out]
        return total

    def _stage_output(
        self, template: CellTemplate, stage_idx: int, stage_inputs: Sequence[bool]
    ) -> bool:
        stage = template.stages[stage_idx]
        if stage.topology is StageTopology.INVERTER:
            return not stage_inputs[0]
        if stage.topology is StageTopology.SERIES_PULLDOWN:
            return not all(stage_inputs)
        if stage.topology is StageTopology.SERIES_PULLUP:
            return not any(stage_inputs)
        # XOR macro: parity (XNOR handled by the template's second stage or
        # by the function itself; leakage is state-averaged anyway).
        return sum(1 for v in stage_inputs if v) % 2 == 1

    def _stage_state_leakage(
        self, stage: StageSpec, vth_class: VthClass, inputs: Sequence[bool]
    ) -> float:
        """Leakage of one primitive stage at size 1 for an input state [A]."""
        tech = self.tech
        if stage.topology is StageTopology.INVERTER:
            if inputs[0]:
                return float(off_current(tech, vth_class, ChannelType.PMOS, self.wp_base))
            return float(off_current(tech, vth_class, ChannelType.NMOS, self.wn_base))

        if stage.topology is StageTopology.XOR_MACRO:
            # State-averaged macro: four NAND2-equivalent stages.
            nand2 = StageSpec(StageTopology.SERIES_PULLDOWN, 2)
            avg = 0.0
            for bits in itertools.product((False, True), repeat=2):
                avg += self._stage_state_leakage(nand2, vth_class, bits)
            return avg  # 4 stages * (avg over 4 states) = sum over states

        k = stage.fanin
        if stage.topology is StageTopology.SERIES_PULLDOWN:
            # NAND-like: series NMOS (width k*wn), parallel PMOS (width wp).
            out_high = not all(inputs)
            if out_high:
                i_dev = float(off_current(tech, vth_class, ChannelType.NMOS, k * self.wn_base))
                return series_network_leakage(i_dev, inputs, self.stack_suppression)
            i_dev = float(off_current(tech, vth_class, ChannelType.PMOS, self.wp_base))
            # PMOS gate at 1 => PMOS off; all inputs are 1 here.
            pmos_on = [not v for v in inputs]
            return parallel_network_leakage(i_dev, pmos_on)

        # NOR-like: parallel NMOS (width wn), series PMOS (width k*wp).
        out_high = not any(inputs)
        if out_high:
            i_dev = float(off_current(tech, vth_class, ChannelType.NMOS, self.wn_base))
            nmos_on = list(inputs)  # all False here
            return parallel_network_leakage(i_dev, nmos_on)
        i_dev = float(off_current(tech, vth_class, ChannelType.PMOS, k * self.wp_base))
        pmos_on = [not v for v in inputs]
        return series_network_leakage(i_dev, pmos_on, self.stack_suppression)


@lru_cache(maxsize=8)
def default_library(tech_name: str = "ptm100") -> Library:
    """A cached default library for a named technology preset."""
    from .technology import get_technology

    return Library(get_technology(tech_name))
