"""What a lint run looks at, and the knobs of the individual rules.

A :class:`LintContext` carries the *subjects* (circuit, library, optimizer
config, variation spec, source tree) plus per-rule thresholds in
:class:`LintOptions`.  Passes whose subject is absent are skipped, so one
context type serves every combination — ``repro lint c432`` populates the
circuit/library/config fields, ``repro lint --self`` only ``source_root``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import FrozenSet, Optional, Tuple

from ..core.annealing import AnnealConfig
from ..core.config import OptimizerConfig
from ..circuit.netlist import Circuit
from ..errors import LintError
from ..tech.library import Library
from ..units import ns, ps
from ..variation.parameters import VariationSpec
from .analysis.modules import ModuleIndex
from .analysis.program import WholeProgram


@dataclass(frozen=True)
class LintOptions:
    """Thresholds of the individual rules (all have conservative defaults).

    Attributes
    ----------
    max_fanout:
        RPR104 flags nets driving more than this many pins.
    reconvergence_depth:
        RPR105 searches for reconvergent fanout within this many logic
        levels of the forking net.
    fo4_min / fo4_max:
        RPR207 expects the library's FO4 delay inside this band [s].
    max_sigma_l_fraction:
        RPR304 flags ``sigma_l_total`` above this fraction of ``lnom``.
    yield_floor / yield_ceiling:
        RPR301 flags yield targets outside this closed band.
    ignore:
        Rule codes disabled for the run (CLI ``--ignore``).
    paths:
        When set, the source-tree passes (codebase/units/rng) only
        *report* findings in these files or directories (CLI
        ``--paths``, used by the pre-commit changed-files hook).  The
        whole-program structures are still built from every module, so
        interprocedural results stay exact.
    """

    max_fanout: int = 64
    reconvergence_depth: int = 4
    fo4_min: float = ps(1.0)
    fo4_max: float = ns(1.0)
    max_sigma_l_fraction: float = 0.15
    yield_floor: float = 0.5
    yield_ceiling: float = 0.9999
    ignore: FrozenSet[str] = frozenset()
    paths: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class LintContext:
    """Everything a lint run analyzes.

    Any subject may be ``None``; the engine only runs passes whose
    subjects are present (circuit pass needs ``circuit``, technology pass
    ``library``, config pass ``config``; the codebase, units, and rng
    passes all run off ``source_root`` and share one cached
    :meth:`module_index`).
    ``spec``, ``anneal``, and ``target_delay`` sharpen the config pass
    when available but are never required.
    """

    circuit: Optional[Circuit] = None
    library: Optional[Library] = None
    config: Optional[OptimizerConfig] = None
    spec: Optional[VariationSpec] = None
    anneal: Optional[AnnealConfig] = None
    target_delay: Optional[float] = None
    source_root: Optional[Path] = None
    options: LintOptions = field(default_factory=LintOptions)
    _module_index: Optional[ModuleIndex] = field(
        default=None, init=False, repr=False, compare=False
    )
    _whole_program: Optional[WholeProgram] = field(
        default=None, init=False, repr=False, compare=False
    )

    def available_passes(self) -> Tuple[str, ...]:
        """The passes this context can feed, in engine order."""
        passes = []
        if self.circuit is not None:
            passes.append("circuit")
        if self.library is not None:
            passes.append("technology")
        if self.config is not None:
            passes.append("config")
        if self.source_root is not None:
            passes.extend(["codebase", "units", "rng", "artifacts"])
        return tuple(passes)

    def module_index(self) -> ModuleIndex:
        """The source tree, read and parsed exactly once per context.

        Every source-tree pass (RPR4xx/5xx/6xx) goes through this
        accessor, so one ``repro lint --self`` run costs one parse per
        file no matter how many passes and rules inspect it.
        """
        if self.source_root is None:
            raise LintError("context has no source_root to index")
        if self._module_index is None:
            # Lazy memoization on a frozen dataclass: the cache is
            # init/repr/compare-excluded state, not part of identity.
            object.__setattr__(
                self, "_module_index", ModuleIndex.load(Path(self.source_root))
            )
        assert self._module_index is not None
        return self._module_index

    def whole_program(self) -> WholeProgram:
        """Shared interprocedural structures, built once per context.

        Symbols and the call graph are needed by the units and rng
        passes alike; this accessor makes them a per-run
        singleton (like :meth:`module_index`), so adding passes does
        not multiply graph-construction cost.
        """
        if self._whole_program is None:
            object.__setattr__(
                self, "_whole_program", WholeProgram.build(self.module_index())
            )
        assert self._whole_program is not None
        return self._whole_program
