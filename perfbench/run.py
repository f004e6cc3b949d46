"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout (it imports ``src/extremal_means``
from there).  A run measures set-up (fresh interpreter to
``import extremal_means.cli``) several times, imports the package once,
then runs passes over the workload's operations, each operation cold in a
forked child (see runner.py).  The first pass is a warm-up whose outputs
are checked (checks.py); every later pass must reproduce them byte for
byte.  Timed passes continue until --seconds have elapsed (at least
MIN_PASSES).

With --trace 1 the timed passes alternate untraced and traced, the traced
ones recording layer spans (spans.py); the run prints the per-layer
metrics and the tracing overhead, and traced stdout must equal untraced
stdout byte for byte.  With --trace 0 it prints the end-to-end metrics.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Details (environment, host calibration, per-pass times,
failures with tracebacks or diffs, spans) go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import runner  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
WARMUP_PASSES = 1
# set-up samples: a few before the warm-up, then one after every timed
# pass, so their median sees the same machine conditions as the passes
SETUP_FIRST = 3
SETUP_MIN = 9
CALIBRATION_LOOP = 200_000
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "slowest_op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ref_dev": "abs",
}


class LayoutError(RuntimeError):
    """The working directory is not a source checkout of the package."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> dict[str, str | None]:
    """Leave BLAS thread settings at their defaults, but cap any at nproc."""
    nproc = _nproc()
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var)
        if value is not None and value.isdigit() and int(value) > nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ.get(var) for var in BLAS_THREAD_VARS}


def checkout_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "extremal_means" / "cli.py").is_file():
        raise LayoutError(f"{root} holds no src/extremal_means; run from a source checkout")
    if not checks.REFERENCE_DIR.is_dir():
        raise LayoutError(f"missing reference outputs in {checks.REFERENCE_DIR}")
    return root


def measure_setup(root: Path) -> float:
    """Seconds from starting a fresh interpreter until `import extremal_means.cli` completes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = "import extremal_means.cli; print('ready', flush=True)"
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=root
    ) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise LayoutError("fresh interpreter could not import extremal_means.cli")
    return seconds


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed at this moment.

    The loop never changes, so its time across results files shows how
    much the host itself slowed down or sped up between runs.
    """
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i
    return time.perf_counter() - start


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git checkout."""
    if not (root / ".git").exists():  # a directory, or a file in a worktree
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root: Path, blas: dict, seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    blas_info = None
    try:
        blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without mode="dicts"; the env vars still say enough
        pass
    return {
        "git_commit": git_commit(root),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": _nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_thread_env": blas,
        "blas": blas_info,
        "warmup_passes": WARMUP_PASSES,
    }


class Run:
    """State of one run: operations, expected outputs, failures, timings."""

    def __init__(
        self, workload: str, seed: int, root: Path, reference_dir: Path = checks.REFERENCE_DIR
    ):
        self.workload = workload
        self.root = root
        self.reference_dir = reference_dir
        self.ops = WORKLOADS[workload].ops(seed)
        self.expected: dict[str, bytes] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.passes: list[dict] = []  # untraced timed passes
        self.traced: list[dict] = []  # traced timed passes
        self.ref_dev: dict[str, float] = {}
        self.warmup: dict | None = None
        self.setup: list[float] = []
        self.calibration: list[float] = []

    def _fail(self, pass_label: str, op_id: str, why: str) -> None:
        self.failures.append({"pass": pass_label, "op": op_id, "why": why})

    def run_pass(self, label: str, trace: bool) -> dict:
        """Every operation once, each in its own cold child."""
        times, rss, ops_spans, outputs = [], [], [], {}
        start = time.perf_counter()
        for op in self.ops:
            res = runner.fork_call(runner.execute, (op,), trace=trace)
            self.attempted += 1
            times.append(res.seconds)
            rss.append(res.maxrss_kb)
            if trace:
                ops_spans.append(res.spans or [])
            if res.error is not None:
                self._fail(label, op.id, res.error)
                continue
            stdout, stderr, code = res.value
            outputs[op.id] = stdout
            if code != 0:
                self._fail(label, op.id, f"exit code {code}: {stderr.strip()}")
            elif op.id in self.expected and stdout != self.expected[op.id]:
                self._fail(label, op.id, "stdout differs from the warm-up pass")
        wall = time.perf_counter() - start
        return {
            "label": label,
            "wall_s": wall,
            "op_s": dict(zip((op.id for op in self.ops), times)),
            "maxrss_kb": dict(zip((op.id for op in self.ops), rss)),
            "outputs": outputs,
            "spans": ops_spans,
        }

    def check_warmup(self, warm: dict) -> None:
        """Reference, invariant and ref_dev checks on the warm-up outputs."""
        outputs = warm["outputs"]
        failed = {f["op"] for f in self.failures}
        for op in self.ops:
            if op.id not in outputs or op.id in failed:
                continue
            if op.check == "reference":
                problem = checks.compare_reference(op, outputs[op.id], self.reference_dir)
            else:
                res = runner.fork_call(checks.check_seeded, (op, outputs[op.id]))
                problem = res.error if res.error is not None else res.value
            if problem:
                self._fail("warmup", op.id, problem)
        for op_id, problem in checks.consistency_problems(self.workload, outputs).items():
            self._fail("warmup", op_id, problem)
        try:
            self.ref_dev = checks.reference_deviation(self.workload, outputs, self.root)
        except (KeyError, ValueError, StopIteration) as exc:
            self._fail("warmup", "ref_dev", f"reference numbers unavailable: {exc!r}")
            self.ref_dev = {"missing": float("nan")}
        gate = checks.REF_GATES[self.workload]
        for op_id, dev in self.ref_dev.items():
            if not dev <= gate:
                self._fail("warmup", op_id, f"ref_dev {dev:.3e} exceeds gate {gate:.0e}")
        self.expected = dict(outputs)

    def failed(self) -> int:
        """Failed operations: distinct (pass, operation) pairs with a failure."""
        return min(len({(f["pass"], f["op"]) for f in self.failures}), self.attempted)

    def warm_up(self) -> None:
        self.warmup = self.run_pass("warmup", trace=False)
        self.check_warmup(self.warmup)

    def timed(self, seconds: float, trace: bool) -> None:
        deadline = time.perf_counter() + seconds
        i = 0
        while (
            time.perf_counter() < deadline
            or len(self.passes) < MIN_PASSES
            or (trace and len(self.traced) < MIN_PASSES)
        ):
            traced = trace and i % 2 == 1
            p = self.run_pass(f"{'traced' if traced else 'timed'}-{i}", trace=traced)
            (self.traced if traced else self.passes).append(p)
            self.setup.append(measure_setup(self.root))
            self.calibration.append(calibrate())
            i += 1
        while len(self.setup) < SETUP_MIN:
            self.setup.append(measure_setup(self.root))


def median_wall(passes: list[dict]) -> float:
    return statistics.median(p["wall_s"] for p in passes)


def end_to_end(run: Run) -> dict[str, float]:
    every = [run.warmup] + run.passes
    return {
        "wall_s": median_wall(run.passes),
        "slowest_op_s": statistics.median(max(p["op_s"].values()) for p in run.passes),
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": max(max(p["maxrss_kb"].values()) for p in every) / 1024.0,
        "ref_dev": max(run.ref_dev.values()),
    }


def per_layer(run: Run) -> dict[str, float]:
    per_pass = [spans.pass_metrics(p["spans"]) for p in run.traced]
    out = {name: statistics.median(m[name] for m in per_pass) for name in spans.per_layer_names()}
    out["bench.trace_overhead_s"] = median_wall(run.traced) - median_wall(run.passes)
    return out


def write_results(run: Run, args, env: dict, metrics: dict) -> Path:
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {
        "workload": args.workload,
        "seconds": args.seconds,
        "environment": env
        | {"timed_passes": len(run.passes), "traced_passes": len(run.traced), "min_passes": MIN_PASSES},
        "operations": [{"id": op.id, "argv": list(op.argv), "params": dict(op.params)} for op in run.ops],
        "setup_s_samples": run.setup,
        "calibration_s_samples": run.calibration,
        "median_calibration_s": statistics.median(run.calibration),
        "passes": [
            {k: p[k] for k in ("label", "wall_s", "op_s", "maxrss_kb")}
            for p in [run.warmup] + run.passes + run.traced
        ],
        "ref_dev": run.ref_dev,
        "attempted": run.attempted,
        "failures": run.failures,
        "metrics": metrics,
    }
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    if run.traced:
        with open(out_dir / f"{stem}-spans.jsonl", "w") as fh:
            for p in run.traced:
                for op_index, op_spans in enumerate(p["spans"]):
                    for sid, parent, name, start, end, counts in op_spans:
                        rec = [p["label"], run.ops[op_index].id, sid, parent, name, start, end, counts]
                        fh.write(json.dumps(rec) + "\n")
    return path


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    blas = cap_blas_threads()
    try:
        root = checkout_root()
        setup = [measure_setup(root) for _ in range(SETUP_FIRST)]
    except (LayoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import extremal_means.cli  # children fork from this state

    if not Path(extremal_means.cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: imported {extremal_means.cli.__file__}, not the checkout's", file=sys.stderr)
        return 2
    env = environment(root, blas, args.seed)
    run = Run(args.workload, args.seed, root)
    run.setup = setup
    run.calibration = [calibrate() for _ in range(SETUP_FIRST)]
    run.warm_up()
    run.timed(args.seconds, trace=bool(args.trace))

    if args.trace:
        values = per_layer(run)
        units = {k: spans.unit(k) for k in values}
    else:
        values = end_to_end(run)
        units = END_TO_END
    # a value that could not be measured (a failed check) is null, never NaN
    metrics = {
        k: {"value": v if math.isfinite(v) else None, "unit": units[k]} for k, v in values.items()
    }
    path = write_results(run, args, env, metrics)
    failed = run.failed()
    print(f"results: {path}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
