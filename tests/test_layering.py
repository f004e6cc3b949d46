"""Import layering of the package, read from the source with ast.

Every `from .x import ...` and `from . import x` counts, including the
ones deferred into function bodies.  The numerical modules (all but the
cli and verification wrappers) must form an acyclic graph; grid and
piecewise, the substrate, import no package module, and sigma, the
solver layer, sits on grid, piecewise and dickman only.  constants and
dickman sit on piecewise alone: their numbers are closed forms, power
series and small quadratures, and nothing there touches the marched
grids.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "extremal_means"
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


def test_constants_sits_on_piecewise_only():
    assert _graph()["constants"] == {"piecewise"}


def test_grid_and_piecewise_import_no_package_module():
    graph = _graph()
    assert graph["grid"] == set() and graph["piecewise"] == set()


def test_dickman_sits_on_piecewise_only():
    assert _graph()["dickman"] == {"piecewise"}
