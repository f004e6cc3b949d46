"""Regenerate the stored reference outputs of the fixed operations.

    python3 perfbench/capture.py

Run from the root of a source checkout.  Each fixed operation of every
workload runs cold (as in a benchmark pass) and its stdout is written to
perfbench/reference/<op id>.out.  Do this only at a commit whose outputs
are known good: the benchmark counts any later byte difference as a
failed operation.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import runner  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import extremal_means.cli  # noqa: F401

    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        for op in workload.ops(DEFAULT_SEED):
            res = runner.fork_call(runner.execute, (op,))
            if res.error is not None:
                print(f"{op.id}: {res.error}", file=sys.stderr)
                return 1
            stdout, stderr, code = res.value
            if code != 0:
                print(f"{op.id}: exit code {code}: {stderr}", file=sys.stderr)
                return 1
            checks.reference_path(op).write_bytes(stdout)
            print(f"{op.id}: {len(stdout)} bytes, {res.seconds:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
