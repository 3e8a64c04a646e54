"""One-stop whole-program analysis bundle, built once per lint run.

Every interprocedural pass needs the same substrate — symbol tables and
the call graph.  Building them repeatedly per pass would multiply the
dominant cost of a self-lint run, so :class:`WholeProgram` bundles them
and the :class:`~repro.lint.context.LintContext` caches one instance per
run, the same way it caches the :class:`~.modules.ModuleIndex`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .callgraph import CallGraph
from .modules import ModuleIndex
from .symbols import PackageSymbols


@dataclass
class WholeProgram:
    """Shared interprocedural structures over one module index."""

    index: ModuleIndex
    symbols: PackageSymbols
    graph: CallGraph

    @classmethod
    def build(cls, index: ModuleIndex) -> "WholeProgram":
        """Construct symbols + call graph for an index."""
        symbols = PackageSymbols(index)
        return cls(index=index, symbols=symbols,
                   graph=CallGraph.build(symbols))
