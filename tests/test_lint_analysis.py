"""The shared analysis substrate: module index, symbols, call graph, lattice."""

import textwrap

import pytest

from repro.errors import LintError
from repro.lint import LintContext, run_lint
from repro.lint.analysis import (
    CONFLICT,
    DIMENSIONLESS,
    UNKNOWN,
    CallGraph,
    ModuleIndex,
    PackageSymbols,
    Unit,
    join,
    meet,
    mixable,
    unit_from_name,
)


def write_package(root, files):
    """Write a {relpath: source} package under ``root`` and return it."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


@pytest.fixture
def pkg(tmp_path):
    """A three-module fixture package with a known call structure."""
    root = tmp_path / "pkg"
    return write_package(root, {
        "__init__.py": "",
        "alpha.py": """
            from .beta import middle

            def top():
                return middle() + 1

            TOP_LEVEL = top()
        """,
        "beta.py": """
            from . import gamma

            def middle():
                return gamma.leaf()

            def unrelated(seed):
                return seed
        """,
        "gamma.py": """
            def leaf():
                return 42

            class Thing:
                def method(self):
                    return self.helper()

                def helper(self):
                    return leaf()
        """,
    })


# -- ModuleIndex --------------------------------------------------------------


class TestModuleIndex:
    def test_loads_and_names_modules(self, pkg):
        index = ModuleIndex.load(pkg)
        names = [info.name for info in index]
        assert names == ["pkg", "pkg.alpha", "pkg.beta", "pkg.gamma"]
        assert index.get("pkg.beta").rel.endswith("beta.py")

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(LintError):
            ModuleIndex.load(tmp_path / "nope")

    def test_syntax_error_raises(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        with pytest.raises(LintError):
            ModuleIndex.load(tmp_path)

    def test_select_by_file_and_directory(self, pkg):
        index = ModuleIndex.load(pkg)
        only = index.select([str(pkg / "beta.py")])
        assert [info.name for info in only] == ["pkg.beta"]
        all_of_dir = index.select([str(pkg)])
        assert len(all_of_dir) == len(index)
        assert index.select([str(pkg / "nothere.py")]) == ()

    def test_context_caches_one_index(self, pkg):
        ctx = LintContext(source_root=pkg)
        assert ctx.module_index() is ctx.module_index()

    def test_context_without_root_raises(self):
        with pytest.raises(LintError):
            LintContext().module_index()

    def test_one_parse_per_file_across_all_passes(self, pkg, monkeypatch):
        """All source-tree passes share the cached ASTs (one parse/file)."""
        import ast as ast_module

        import repro.lint.analysis.modules as modules_module

        calls = []
        real_parse = ast_module.parse

        def counting_parse(source, *args, **kwargs):
            calls.append(kwargs.get("filename") or (args[0] if args else None))
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(modules_module.ast, "parse", counting_parse)
        report = run_lint(LintContext(source_root=pkg))
        assert report.passes == ("codebase", "units", "rng", "artifacts")
        assert len(calls) == 4  # one per .py file, despite four passes


# -- symbols + call graph -----------------------------------------------------


class TestCallGraph:
    def test_edges_through_import_styles(self, pkg):
        graph = CallGraph.of(ModuleIndex.load(pkg))
        # from-import of a function
        assert "pkg.beta.middle" in graph.callees("pkg.alpha.top")
        # module-attribute call
        assert "pkg.gamma.leaf" in graph.callees("pkg.beta.middle")
        # self-method resolution
        assert "pkg.gamma.Thing.helper" in graph.callees("pkg.gamma.Thing.method")
        assert "pkg.gamma.leaf" in graph.callees("pkg.gamma.Thing.helper")

    def test_module_node_owns_top_level_calls(self, pkg):
        graph = CallGraph.of(ModuleIndex.load(pkg))
        assert "pkg.alpha.top" in graph.callees("pkg.alpha.<module>")

    def test_reverse_edges(self, pkg):
        graph = CallGraph.of(ModuleIndex.load(pkg))
        assert "pkg.beta.middle" in graph.callers("pkg.gamma.leaf")

    def test_find_path_two_hops(self, pkg):
        graph = CallGraph.of(ModuleIndex.load(pkg))
        path = graph.find_path("pkg.alpha.top", "pkg.gamma.leaf")
        assert path == ("pkg.alpha.top", "pkg.beta.middle", "pkg.gamma.leaf")
        assert graph.find_path("pkg.gamma.leaf", "pkg.alpha.top") is None

    def test_reachability(self, pkg):
        graph = CallGraph.of(ModuleIndex.load(pkg))
        reached = graph.reachable_from("pkg.alpha.top")
        assert {"pkg.beta.middle", "pkg.gamma.leaf"} <= reached
        assert "pkg.beta.unrelated" not in reached

    def test_function_params_exposed(self, pkg):
        symbols = PackageSymbols(ModuleIndex.load(pkg))
        fn = symbols.functions["pkg.beta.unrelated"]
        assert fn.params == ("seed",)
        assert fn.has_param("seed", "rng")
        assert not symbols.functions["pkg.gamma.leaf"].has_param("seed")

    def test_resolve_name_through_alias(self, tmp_path):
        root = write_package(tmp_path / "p", {
            "__init__.py": "",
            "m.py": """
                import numpy as np

                def f():
                    return np.random.default_rng()
            """,
        })
        symbols = PackageSymbols(ModuleIndex.load(root))
        info = symbols.index.get("p.m")
        import ast
        call = ast.walk(info.tree)
        names = [
            symbols.resolve_name(info, node.func)
            for node in call if isinstance(node, ast.Call)
        ]
        assert "numpy.random.default_rng" in names


class TestCallGraphEdgeCases:
    """Decorators, lambdas, functools.partial, and re-export chasing."""

    @pytest.fixture
    def edgy(self, tmp_path):
        return write_package(tmp_path / "edgy", {
            "__init__.py": "from .work import job\n",
            "reg.py": """
                def trace(fn):
                    return fn

                def check(name):
                    def wrap(fn):
                        return fn
                    return wrap
            """,
            "work.py": """
                import functools

                from .reg import check, trace

                def job():
                    return 1

                @trace
                def traced():
                    return 2

                @check("units")
                def checked():
                    return 3

                class Widget:
                    @trace
                    def method(self):
                        return 4

                def binds():
                    return functools.partial(job, 0)

                def anon():
                    return (lambda: job)()
            """,
            "use.py": """
                from edgy import job

                def caller():
                    return job()
            """,
        })

    def test_bare_decorator_edges_to_module_node(self, edgy):
        graph = CallGraph.of(ModuleIndex.load(edgy))
        module_node = "edgy.work.<module>"
        assert "edgy.reg.trace" in graph.callees(module_node)
        # the decorated function body does NOT call the decorator
        assert "edgy.reg.trace" not in graph.callees("edgy.work.traced")

    def test_call_decorator_edges_to_factory(self, edgy):
        graph = CallGraph.of(ModuleIndex.load(edgy))
        assert "edgy.reg.check" in graph.callees("edgy.work.<module>")

    def test_method_decorator_attributed_to_module(self, edgy):
        graph = CallGraph.of(ModuleIndex.load(edgy))
        # @trace on Widget.method runs when the class body executes
        assert "edgy.work.<module>" in graph.callers("edgy.reg.trace")

    def test_partial_binding_site_is_a_caller(self, edgy):
        graph = CallGraph.of(ModuleIndex.load(edgy))
        assert "edgy.work.job" in graph.callees("edgy.work.binds")

    def test_lambda_call_contributes_no_edge(self, edgy):
        # under-approximation: a lambda call is unresolvable, never wrong
        graph = CallGraph.of(ModuleIndex.load(edgy))
        assert "edgy.work.job" not in graph.callees("edgy.work.anon")

    def test_canonical_chases_package_reexport(self, edgy):
        symbols = PackageSymbols(ModuleIndex.load(edgy))
        assert symbols.canonical("edgy.job") == "edgy.work.job"
        graph = CallGraph.build(symbols)
        # `from edgy import job` resolves through the package __init__
        assert "edgy.work.job" in graph.callees("edgy.use.caller")


# -- unit lattice -------------------------------------------------------------


class TestUnitLattice:
    def test_join_idempotent_and_commutative(self):
        ps = Unit("time", "ps")
        si = Unit("time")
        assert join(ps, ps) == ps
        assert join(ps, si) == join(si, ps) == UNKNOWN

    def test_join_absorbs_conflict(self):
        ps = Unit("time", "ps")
        assert join(CONFLICT, ps) == ps
        assert join(UNKNOWN, ps) == UNKNOWN

    def test_meet_identity_and_clash(self):
        ps = Unit("time", "ps")
        nw = Unit("power", "nW")
        assert meet(ps, ps) == ps
        assert meet(UNKNOWN, ps) == ps
        assert meet(ps, UNKNOWN) == ps
        assert meet(ps, nw) == CONFLICT

    def test_mixable_gives_benefit_of_doubt(self):
        ps = Unit("time", "ps")
        assert mixable(ps, UNKNOWN)
        assert mixable(ps, DIMENSIONLESS)
        assert mixable(ps, ps)
        assert not mixable(ps, Unit("time"))
        assert not mixable(ps, Unit("power", "nW"))

    def test_unit_from_name_suffixes(self):
        assert unit_from_name("delay_ps") == Unit("time", "ps")
        assert unit_from_name("leakage_nw") == Unit("power", "nW")
        assert unit_from_name("cap_pf") == Unit("capacitance", "pF")
        assert unit_from_name("delay") is None
        assert unit_from_name("snapshot") is None

    def test_str_forms(self):
        assert str(Unit("time", "ps")) == "time[ps]"
        assert str(UNKNOWN) == "unknown"
        assert str(DIMENSIONLESS) == "dimensionless"
