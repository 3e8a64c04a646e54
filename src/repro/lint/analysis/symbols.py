"""Symbol tables over a :class:`~repro.lint.analysis.modules.ModuleIndex`.

For each module: the functions and methods it defines (with their
qualified names and signatures) and what its imported names refer to.
This is the name-resolution layer both interprocedural passes build on —
the call graph resolves call expressions through it, and the units pass
uses it to recognize ``repro.units`` helpers under any import alias.

Resolution is deliberately static and conservative: only names that can
be positively traced to a definition inside the indexed package (or to
an external module like ``numpy``) resolve; everything else stays
unresolved and the analyses give it the benefit of the doubt.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .modules import ModuleIndex, ModuleInfo

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef

#: Suffix of the synthetic per-module call-graph node that owns top-level
#: statements (re-exported by :mod:`.callgraph` for historical imports).
MODULE_NODE = "<module>"


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition.

    ``qualname`` is the dotted path (``repro.timing.mc.draw_samples``,
    ``repro.core.engine.Engine.run``); ``params`` the positional +
    keyword parameter names in order.
    """

    qualname: str
    name: str
    module: ModuleInfo
    node: FunctionNode = field(hash=False, compare=False)
    params: Tuple[str, ...]
    class_name: Optional[str] = None

    @property
    def line(self) -> int:
        """Definition line of the function."""
        return self.node.lineno

    def has_param(self, *names: str) -> bool:
        """True when any of ``names`` is a declared parameter."""
        return any(p in self.params for p in names)


@dataclass(frozen=True)
class ClassInfo:
    """One top-level class definition."""

    qualname: str
    name: str
    module: ModuleInfo
    node: ast.ClassDef = field(hash=False, compare=False)

    @property
    def line(self) -> int:
        """Definition line of the class."""
        return self.node.lineno


@dataclass
class ModuleSymbols:
    """What one module defines and imports.

    ``imports`` maps a local alias to its dotted target: modules
    (``np -> numpy``, ``mc -> repro.timing.mc``) and objects
    (``draw_samples -> repro.timing.mc.draw_samples``) alike.
    ``functions`` maps a top-level function name to its qualname;
    ``classes`` does the same for top-level classes.
    """

    module: ModuleInfo
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, str] = field(default_factory=dict)


class PackageSymbols:
    """Symbol tables for every module of an index."""

    def __init__(self, index: ModuleIndex) -> None:
        self.index = index
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.by_module: Dict[str, ModuleSymbols] = {}
        for info in index:
            self.by_module[info.name] = self._scan_module(info)

    def _scan_module(self, info: ModuleInfo) -> ModuleSymbols:
        symbols = ModuleSymbols(module=info)
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    symbols.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(info, node)
                if base is None:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    symbols.imports[local] = f"{base}.{alias.name}" if base else alias.name
        for stmt in info.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(info, symbols, stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                qual = f"{info.name}.{stmt.name}"
                cls = ClassInfo(
                    qualname=qual, name=stmt.name, module=info, node=stmt
                )
                self.classes[qual] = cls
                symbols.classes[stmt.name] = qual
                for member in stmt.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add_function(
                            info, symbols, member, class_name=stmt.name
                        )
        return symbols

    def _resolve_from(
        self, info: ModuleInfo, node: ast.ImportFrom
    ) -> Optional[str]:
        """Dotted base module of a ``from X import ...`` statement."""
        if node.level == 0:
            return node.module
        # Relative import: climb from the importing module's package.
        parts = info.name.split(".")
        # Non-package modules sit one level above their own name.
        is_package = info.path.name == "__init__.py"
        base_parts = parts if is_package else parts[:-1]
        up = node.level - 1
        if up > len(base_parts):
            return None
        base_parts = base_parts[: len(base_parts) - up]
        if node.module:
            base_parts = [*base_parts, node.module]
        return ".".join(base_parts) if base_parts else None

    def _add_function(
        self,
        info: ModuleInfo,
        symbols: ModuleSymbols,
        node: FunctionNode,
        class_name: Optional[str],
    ) -> None:
        qual = (
            f"{info.name}.{class_name}.{node.name}"
            if class_name
            else f"{info.name}.{node.name}"
        )
        params = tuple(
            arg.arg
            for arg in [
                *node.args.posonlyargs,
                *node.args.args,
                *node.args.kwonlyargs,
            ]
        )
        fn = FunctionInfo(
            qualname=qual,
            name=node.name,
            module=info,
            node=node,
            params=params,
            class_name=class_name,
        )
        self.functions[qual] = fn
        if class_name is None:
            symbols.functions[node.name] = qual

    # -- call resolution ----------------------------------------------------

    def canonical(self, dotted: str) -> str:
        """Chase package re-exports down to the defining qualname.

        ``from ..parallel import run_sharded`` imports the name through
        ``parallel/__init__.py``; the definition lives at
        ``repro.parallel.runner.run_sharded``.  Follows ``__init__``
        (or any module) import chains until the name lands on a known
        definition or leaves the package; cycles terminate unresolved.
        """
        seen = set()
        while (dotted not in self.functions and dotted not in self.classes
               and dotted not in seen):
            seen.add(dotted)
            head, _, leaf = dotted.rpartition(".")
            exporter = self.by_module.get(head)
            if exporter is None:
                break
            target = exporter.imports.get(leaf)
            if target is None:
                break
            dotted = target
        return dotted

    def resolve_call(
        self, caller_module: ModuleInfo, func: ast.expr,
        class_name: Optional[str] = None,
    ) -> Optional[str]:
        """Qualname of the called package function, or None.

        Handles direct names (local definitions and ``from``-imports,
        including names re-exported through package ``__init__``
        modules), module-attribute calls (``mc.draw_samples(...)``), and
        ``self.method(...)`` inside a class body.
        """
        symbols = self.by_module[caller_module.name]
        if isinstance(func, ast.Name):
            local = symbols.functions.get(func.id)
            if local is not None:
                return local
            target = symbols.imports.get(func.id)
            if target is not None:
                target = self.canonical(target)
                if target in self.functions:
                    return target
            return None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id == "self" and class_name is not None:
                qual = f"{caller_module.name}.{class_name}.{func.attr}"
                return qual if qual in self.functions else None
            target = symbols.imports.get(func.value.id)
            if target is not None:
                qual = self.canonical(f"{target}.{func.attr}")
                return qual if qual in self.functions else None
        return None

    def resolve_value(
        self, caller_module: ModuleInfo, expr: ast.expr,
        class_name: Optional[str] = None,
    ) -> Optional[str]:
        """Qualname of the definition a *value* expression denotes.

        Where :meth:`resolve_call` answers "what does calling this
        invoke", this answers "what does this expression refer to" — the
        question the call graph asks about decorators and
        ``functools.partial`` arguments.  Resolves names and module
        attributes to package functions *or classes*, ``self.method``
        references, direct constructor calls (``Worker(...)`` denotes an
        instance of ``Worker``), and unwraps ``functools.partial(f, ...)``
        to ``f``.
        """
        symbols = self.by_module[caller_module.name]
        if isinstance(expr, ast.Name):
            local = symbols.functions.get(expr.id)
            if local is not None:
                return local
            local_cls = symbols.classes.get(expr.id)
            if local_cls is not None:
                return local_cls
            target = symbols.imports.get(expr.id)
            if target is not None:
                target = self.canonical(target)
                if target in self.functions or target in self.classes:
                    return target
            return None
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            if expr.value.id == "self" and class_name is not None:
                qual = f"{caller_module.name}.{class_name}.{expr.attr}"
                return qual if qual in self.functions else None
            target = symbols.imports.get(expr.value.id)
            if target is not None:
                qual = self.canonical(f"{target}.{expr.attr}")
                if qual in self.functions or qual in self.classes:
                    return qual
            return None
        if isinstance(expr, ast.Call):
            dotted = self.resolve_name(caller_module, expr.func)
            if dotted == "functools.partial" and expr.args:
                return self.resolve_value(
                    caller_module, expr.args[0], class_name
                )
            inner = self.resolve_value(caller_module, expr.func, class_name)
            if inner is not None and inner in self.classes:
                return inner  # an instance of a package class
            return None
        return None

    def callable_entry(self, qualname: Optional[str]) -> Optional[str]:
        """Graph node invoked when a resolved value is called.

        Functions map to themselves; classes map to their ``__call__``
        method when one is defined, else stay unresolved.
        """
        if qualname is None:
            return None
        if qualname in self.classes:
            call = f"{qualname}.__call__"
            return call if call in self.functions else None
        return qualname if qualname in self.functions else None

    def resolve_name(
        self, caller_module: ModuleInfo, func: ast.expr
    ) -> Optional[str]:
        """Fully-dotted name of any call target (also external ones).

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` when ``np`` aliases ``numpy`` —
        used by the rng pass to recognize sources regardless of alias.
        """
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        symbols = self.by_module[caller_module.name]
        head = symbols.imports.get(node.id, node.id)
        return ".".join([head, *reversed(parts)])

    def iter_functions(self) -> Iterator[FunctionInfo]:
        """Every function/method, sorted by qualname."""
        for qual in sorted(self.functions):
            yield self.functions[qual]

    def node_bodies(self, info: ModuleInfo) -> Dict[str, List[ast.stmt]]:
        """Call-graph node -> the statements it owns, for one module.

        Functions and methods own their bodies; the synthetic
        ``<module>`` node owns the top-level statements minus function
        and class definitions (those get their own nodes).  Every
        interprocedural pass walks bodies through this partition so a
        statement is attributed to exactly one graph node.
        """
        bodies: Dict[str, List[ast.stmt]] = {}
        for fn in self.iter_functions():
            if fn.module is info:
                bodies[fn.qualname] = list(fn.node.body)
        bodies[f"{info.name}.{MODULE_NODE}"] = [
            stmt for stmt in info.tree.body
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))
        ]
        return bodies
