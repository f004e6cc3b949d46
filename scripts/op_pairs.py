"""Paired per-operation timings of two checkouts on one benchmark workload.

From any directory, with two source checkouts of the repository:

    python3 scripts/op_pairs.py --parent ../base --change . --workload renewal --pairs 10

It starts one worker process per checkout.  A worker puts that
checkout's src/ and perfbench/ first on its path, imports the package,
perfbench/runner.py and perfbench/workloads.py, and writes no bytecode, so
neither tree changes.  On request it runs one pass: every fixed operation
of the workload once, each cold in a forked child (runner.fork_call), as
the passes of perfbench/run.py do.

Each side first runs one warm-up pass; the script reports whether the two
sides printed the same bytes for every operation.  Then it runs --pairs
pairs of passes, the parent first in odd pairs and the change first in
even ones, so a drift of the host loads both sides alike.  It prints each
side's per-operation and per-pass median and quartiles, the child max
RSS (its largest value, and its median and quartiles per side; a pass
reads the largest of its operations), and in how many pairs the change
was faster, per operation and per pass.  Its last line says whether the
passes meet the gain rule of the simplicity review: the change faster in
at least nine tenths of the pairs (ties count for neither side), and its
median pass faster by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def worker(root: Path, workload: str) -> None:
    """Serve passes of the workload's fixed operations: one JSON line per
    line read from stdin."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import extremal_means.cli  # children fork from this state
    import runner
    import workloads

    for module in (extremal_means.cli, runner, workloads):
        if not Path(module.__file__).resolve().is_relative_to(root):
            raise SystemExit(f"imported {module.__file__}, not the checkout's in {root}")
    ops = workloads.WORKLOADS[workload].fixed
    print(json.dumps([op.id for op in ops]), flush=True)
    for _ in sys.stdin:
        results = []
        start = time.perf_counter()
        for op in ops:
            res = runner.fork_call(runner.execute, (op,))
            digest = None
            if res.error is None and res.value[2] == 0:
                digest = hashlib.sha256(res.value[0]).hexdigest()
            results.append({"s": res.seconds, "rss_kb": res.maxrss_kb, "sha256": digest})
        wall = time.perf_counter() - start
        print(json.dumps({"wall_s": wall, "ops": results}), flush=True)


class Worker:
    """A worker process on one checkout, driven over its stdin and stdout."""

    def __init__(self, root: Path, workload: str):
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, str(Path(__file__).resolve()), "--worker", str(root)]
        self.proc = subprocess.Popen(
            [*argv, "--workload", workload],
            cwd=root,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise SystemExit(f"the worker on {root} did not start")
        self.op_ids = json.loads(line)

    def run_pass(self) -> dict:
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("a worker exited during a pass")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def spread(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), quartiles inclusive of the extremes."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def fmt(values: list[float]) -> str:
    q1, med, q3 = spread(values)
    return f"{med:9.4f} [{q1:.4f}, {q3:.4f}]"


def fmt_mb(values_kb: list[int]) -> str:
    q1, med, q3 = spread([v / 1024 for v in values_kb])
    return f"{med:.1f} [{q1:.1f}, {q3:.1f}]"


def report(op_ids: list[str], passes: dict[str, list[dict]], warm: dict[str, dict]) -> None:
    pairs = len(passes["parent"])
    differ = [
        op_id
        for i, op_id in enumerate(op_ids)
        if warm["parent"]["ops"][i]["sha256"] != warm["change"]["ops"][i]["sha256"]
        or warm["parent"]["ops"][i]["sha256"] is None
    ]
    print(f"warm-up stdout: {'identical' if not differ else 'differs or failed on ' + ', '.join(differ)}")
    print(
        f"{pairs} pairs; seconds and child max RSS as median [q1, q3]; "
        "wins: pairs where the change was faster"
    )
    head = (
        f"{'operation':<24} {'parent':>29} {'change':>29} {'wins':>6} {'max RSS MB':>16}"
        f" {'parent RSS MB':>20} {'change RSS MB':>20}"
    )
    print(head)
    rows = [(op_id, i) for i, op_id in enumerate(op_ids)] + [("pass", None)]
    for label, i in rows:
        if i is None:
            times = {s: [p["wall_s"] for p in passes[s]] for s in SIDES}
            rss = {s: [max(o["rss_kb"] for o in p["ops"]) for p in passes[s]] for s in SIDES}
        else:
            times = {s: [p["ops"][i]["s"] for p in passes[s]] for s in SIDES}
            rss = {s: [p["ops"][i]["rss_kb"] for p in passes[s]] for s in SIDES}
        wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
        mb = f"{max(rss['parent']) / 1024:.1f} / {max(rss['change']) / 1024:.1f}"
        print(
            f"{label:<24} {fmt(times['parent']):>29} {fmt(times['change']):>29} {wins:>6} {mb:>16}"
            f" {fmt_mb(rss['parent']):>20} {fmt_mb(rss['change']):>20}"
        )
    walls = {s: [p["wall_s"] for p in passes[s]] for s in SIDES}
    q1, med, q3 = spread(walls["parent"])
    gain = med - statistics.median(walls["change"])
    wins = sum(c < p for p, c in zip(walls["parent"], walls["change"]))
    print(
        f"change won {wins} of {pairs} pairs; its median pass is "
        f"{'faster' if gain > 0 else 'slower'} by {abs(gain):.4f} s, "
        f"the parent's interquartile range {q3 - q1:.4f} s"
    )
    met = 10 * wins >= 9 * pairs and gain > q3 - q1
    print(
        f"gain rule (won at least 9/10 of the pairs, median gap above the parent's "
        f"interquartile range): {'met' if met else 'not met'}"
    )


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is None:
        if args.parent is None or args.change is None:
            parser.error("--parent and --change are required")
        if args.pairs < 2:
            parser.error("--pairs must be at least 2")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.worker is not None:
        worker(args.worker.resolve(), args.workload)
        return 0
    workers = {}
    try:
        for side in SIDES:
            workers[side] = Worker(getattr(args, side).resolve(), args.workload)
        op_ids = workers["parent"].op_ids
        if workers["change"].op_ids != op_ids:
            raise SystemExit("the two checkouts list different operations")
        warm = {side: workers[side].run_pass() for side in SIDES}
        passes = {side: [] for side in SIDES}
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                passes[side].append(workers[side].run_pass())
    finally:
        for w in workers.values():
            w.close()
    report(op_ids, passes, warm)
    return 0


if __name__ == "__main__":
    sys.exit(main())
