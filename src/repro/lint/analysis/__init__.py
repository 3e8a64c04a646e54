"""Shared whole-program analysis substrate for the source-tree passes.

Layers, bottom to top:

* :mod:`~repro.lint.analysis.modules` — module loader with cached ASTs
  and inline-pragma tables (one parse per file per lint run, shared by
  the RPR4xx/5xx/6xx passes through the :class:`LintContext` cache);
* :mod:`~repro.lint.analysis.symbols` — per-module symbol tables and
  conservative name resolution (imports, aliases, ``self`` methods);
* :mod:`~repro.lint.analysis.callgraph` — static call graph with
  forward/reverse traversal and path reconstruction;
* :mod:`~repro.lint.analysis.unitlattice` — the unit lattice the
  units-propagation pass abstractly interprets over;
* :mod:`~repro.lint.analysis.program` — the per-run bundle caching all
  of the above behind the :class:`LintContext`.
"""

from .callgraph import MODULE_NODE, CallGraph
from .modules import ModuleIndex, ModuleInfo, collect_pragmas
from .program import WholeProgram
from .symbols import ClassInfo, FunctionInfo, ModuleSymbols, PackageSymbols
from .unitlattice import (
    CONFLICT,
    DIMENSIONLESS,
    INTO_SI,
    OUT_OF_SI,
    SUFFIX_UNITS,
    UNKNOWN,
    Unit,
    join,
    meet,
    mixable,
    unit_from_name,
)

__all__ = [
    "CONFLICT",
    "CallGraph",
    "ClassInfo",
    "DIMENSIONLESS",
    "FunctionInfo",
    "INTO_SI",
    "MODULE_NODE",
    "ModuleIndex",
    "ModuleInfo",
    "ModuleSymbols",
    "OUT_OF_SI",
    "PackageSymbols",
    "SUFFIX_UNITS",
    "UNKNOWN",
    "Unit",
    "WholeProgram",
    "collect_pragmas",
    "join",
    "meet",
    "mixable",
    "unit_from_name",
]
