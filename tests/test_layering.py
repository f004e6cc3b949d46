"""Import layering of the package, read from the source with ast.

Every `from .x import ...` and `from . import x` counts, including the
ones deferred into function bodies.  The numerical modules (all but the
cli and verification wrappers) must form an acyclic graph; grid and
piecewise, the substrate, import no package module, and sigma, the
solver layer, sits on grid, piecewise and dickman only.  constants and
dickman sit on piecewise at most: their numbers are closed forms, power
series and small quadratures, and nothing there touches the marched
grids.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "extremal_means"
# the benchmark's span recorder, which wraps package functions by name
BENCH_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
WRAPPERS = {"cli", "verification"}


def _imports(path: Path) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def _graph() -> dict[str, set[str]]:
    modules = {p.stem: p for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    return {name: _imports(path) & set(modules) for name, path in modules.items()}


def test_numerical_modules_are_acyclic():
    graph = {m: deps - WRAPPERS for m, deps in _graph().items() if m not in WRAPPERS}
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]) -> None:
        assert module not in path, "import cycle: " + " -> ".join(path + (module,))
        if module in done:
            return
        for dep in sorted(graph[module]):
            visit(dep, path + (module,))
        done.add(module)

    for module in sorted(graph):
        visit(module, ())


def test_sigma_sits_on_grid_piecewise_dickman():
    assert _graph()["sigma"] <= {"grid", "piecewise", "dickman"}


def test_extremal_takes_only_the_grid_type_from_grid():
    # the step-profile march, full or stopped, is sigma's alone
    names = {
        alias.name
        for node in ast.walk(ast.parse((PACKAGE / "extremal.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "grid"
        for alias in node.names
    }
    assert names == {"SolutionGrid"}


def test_constants_sits_on_piecewise_only():
    assert _graph()["constants"] == {"piecewise"}


def test_grid_and_piecewise_import_no_package_module():
    graph = _graph()
    assert graph["grid"] == set() and graph["piecewise"] == set()


def test_dickman_sits_on_piecewise_only():
    assert _graph()["dickman"] <= {"piecewise"}


def _args_keys(function: ast.FunctionDef) -> set[str]:
    """The constant keys a span counter reads as args["..."]."""
    return {
        node.slice.value
        for node in ast.walk(function)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
        and isinstance(node.slice, ast.Constant)
    }


def test_benchmark_spans_name_live_functions_and_parameters():
    # a traced benchmark run binds each counter's args by parameter name,
    # so a renamed function or parameter would fail only under --trace
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tree = ast.parse(BENCH_SPANS.read_text())
    counters = {f.name: _args_keys(f) for f in tree.body if isinstance(f, ast.FunctionDef)}
    assert set().union(*counters.values())  # the counters do read args
    for module_name, name, counter in spans.LAYER_FUNCTIONS:
        function = getattr(importlib.import_module(f"extremal_means.{module_name}"), name)
        params = set(inspect.signature(function).parameters)
        if counter is not None:
            assert counters[counter.__name__] <= params, f"{module_name}.{name}"
