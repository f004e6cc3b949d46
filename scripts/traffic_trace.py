"""Package code that no benchmark operation and no full self-check runs.

It answers which code of src/extremal_means user traffic never reaches.
Under line_trace's sys.settrace tracer, in this one process, it runs
every operation that perfbench/run.py forks for the seeds 0 .. N-1: each
workload's fixed operations once, and the seeded draws read from
perfbench/workloads.py.  Then it runs `verify --suite full`.  From the
repository root:

    python3 scripts/traffic_trace.py --seeds 8

It prints every package function that was never called, then every code
line that never ran inside the functions that were (blank, comment and
docstring lines skipped).  Lines of `raise` statements, the input guards
that no valid operation reaches, are not listed but counted per file.
Unlike the forked benchmark, caches persist here from one operation to
the next, so a cached body counts once it has run anywhere.
Subprocesses (verify's cli-deterministic check) are not traced.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import line_trace  # noqa: E402  (beside this script)


def _functions(code):
    """Named functions and methods under a code object, nested ones too."""
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            if not const.co_name.startswith("<"):  # lambdas, comprehensions
                yield const
            yield from _functions(const)


def _raise_lines(path: Path) -> set[int]:
    """Every line that a `raise` statement spans in one source file."""
    return {
        line
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        for line in range(node.lineno, node.end_lineno + 1)
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=8, help="trace seeds 0 .. N-1")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")

    # before the package is imported, so its module lines count
    sys.settrace(line_trace._trace)
    threading.settrace(line_trace._trace)
    import runner
    from workloads import WORKLOADS

    from extremal_means import cli

    ops = {op: None for w in WORKLOADS.values() for seed in range(args.seeds) for op in w.ops(seed)}
    failed = [op.id for op in ops if runner.execute(op)[2] != 0]
    with contextlib.redirect_stdout(io.StringIO()):
        verify_code = cli.main(["verify", "--suite", "full"])
    sys.settrace(None)
    threading.settrace(None)

    print(f"traced {len(ops)} operations (non-zero exit: {failed or 'none'}) "
          f"and verify --suite full (exit {verify_code})")
    uncalled, skipped = [], set()
    for path in sorted(line_trace.PACKAGE.glob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        for fn in _functions(module):
            if (str(path), fn.co_firstlineno) not in line_trace._calls:
                uncalled.append(f"{path.stem}.{fn.co_qualname} ({path.name}:{fn.co_firstlineno})")
                skipped.update((path, line) for line in line_trace._code_lines(fn))
    print(f"{len(uncalled)} functions never called:")
    for name in uncalled:
        print(f"  {name}")
    raises = {path: _raise_lines(path) for path in line_trace.PACKAGE.glob("*.py")}
    missed, guards = [], Counter()
    for path, line, text in line_trace.never_executed():
        if (path, line) in skipped:
            continue
        if line in raises[path]:
            guards[path.name] += 1
        else:
            missed.append(f"  {path.name}:{line}: {text}")
    print(f"{len(missed)} lines never run in the functions that were called, raise lines aside:")
    print("\n".join(missed))
    counts = ", ".join(f"{name} {n}" for name, n in sorted(guards.items()))
    print(f"{sum(guards.values())} raise lines never run: {counts or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
