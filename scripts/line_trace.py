"""Lines of src/extremal_means that a pytest run never executes.

A pytest plugin on sys.settrace, so it needs no coverage package.  From
the repository root, run the tier-1 suite under it with

    PYTHONPATH=src:scripts python -m pytest -q -p line_trace

It prints, after the test summary, path:line and the source of every
line that holds code and never ran in the pytest process (CLI runs in a
subprocess are not seen); blank, comment and docstring lines are skipped.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections.abc import Iterator
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "extremal_means"
_hits: dict[str, set[int]] = {}
# (file, first line) of every package code object that was entered
_calls: set[tuple[str, int]] = set()


def _trace(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if not code.co_filename.startswith(str(PACKAGE)):
            return None
        _calls.add((code.co_filename, code.co_firstlineno))
        return _trace
    if event == "line":
        _hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return _trace


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        scope = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        if scope and ast.get_docstring(node):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def never_executed() -> Iterator[tuple[Path, int, str]]:
    """(path, line, source) of every package code line that never ran."""
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        skip = _docstring_lines(ast.parse(source))
        code = compile(source, str(path), "exec")
        for line in sorted(_code_lines(code) - skip - _hits.get(str(path), set())):
            if line and text[line - 1].strip():
                yield path, line, text[line - 1].strip()


def pytest_load_initial_conftests(early_config, parser, args):
    # before the conftests import the package, so its module lines count
    sys.settrace(_trace)
    threading.settrace(_trace)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    missed = 0
    for path, line, text in never_executed():
        terminalreporter.write_line(f"{path.name}:{line}: {text}")
        missed += 1
    terminalreporter.write_line(f"{missed} lines of {PACKAGE.name} never executed")
