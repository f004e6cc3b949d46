"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest -q perfbench/tests

Run from the repository root.  The corrupted-reference test runs one
warm-up pass of paper-tables twice (a few seconds each).
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import runner  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

from extremal_means import extremal, oracle  # noqa: E402

PAPER_COMMANDS = {
    "paper-tables": [
        ["table", "--grid", "u"],
        ["table", "--grid", "k"],
        ["table", "--grid", "k", "--kmax", "40"],
        ["constants"],
        ["dickman", "--u", "5"],
        ["sigma", "--delta", "0.3", "--u-max", "6"],
        ["udelta", "--u", "4"],
        ["udelta", "--u", "5"],
        ["udelta", "--u", "8"],
        ["udelta", "--delta", "0.05"],
    ],
    "renewal": [
        ["chi-extend", "--delta", "1.0"],
        ["chi-extend", "--delta", "0.44"],
        ["chi-extend", "--delta", "0.2"],
        ["chi-extend", "--delta", "0.1"],
        ["chi-extend", "--delta", "0.3", "--h", "5e-5"],
        "vanishing(delta=0.2, horizon=3.0)",
    ],
    "sieve-lab": [
        ["oracle"],
        ["oracle", "--k", "3", "--delta", "0.5", "--y", "1e3", "--n", "1000000"],
        "pipeline(k=3, y=1000.0, N=2000000, seed=7, h_max=16)",
    ],
}


def _describe(op) -> list[str] | str:
    if op.kind == "cli":
        return list(op.argv)
    args = ", ".join(f"{k}={v!r}" for k, v in op.params)
    return f"{op.id.split('-', 1)[0]}({args})"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_seed_yields_exactly_the_paper_commands(name):
    ops = WORKLOADS[name].ops(DEFAULT_SEED)
    assert [_describe(op) for op in ops] == PAPER_COMMANDS[name]
    assert all(op.check == "reference" for op in ops)
    assert all(checks.reference_path(op).is_file() for op in ops)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_determines_inputs(name):
    for seed in range(1, 40):
        assert WORKLOADS[name].ops(seed) == WORKLOADS[name].ops(seed)
    draws = {tuple(op.argv) for seed in range(1, 40) for op in WORKLOADS[name].ops(seed) if op.check != "reference"}
    assert len(draws) > 30  # seeds actually vary the draws


def _seeded(name, seeds):
    for seed in seeds:
        yield from (op for op in WORKLOADS[name].ops(seed) if op.check != "reference")


def test_seeded_inputs_lie_in_the_documented_domain():
    seeds = range(1, 400)
    for op in _seeded("paper-tables", seeds):
        if op.check == "round-trip-u":
            lo, hi = workloads.UDELTA_U_RANGE
            assert lo < op.value("u") <= hi <= extremal.U_CAP
        else:
            assert 0.02 <= op.value("delta") < 0.44
    for op in _seeded("renewal", seeds):
        assert 0.1 <= op.value("delta") <= 1.0
    for op in _seeded("sieve-lab", seeds):
        k, delta, y, n = (op.value(v) for v in ("k", "delta", "y", "n"))
        assert k == int(k) and n == int(n)
        assert workloads.sieve_draw_feasible(int(k), delta, y, int(n))
        # the conditions construct_tracking_spec enforces, with the library's U
        assert (1.0 + delta) / k <= 1.0 / (k - 1) + 1e-12
        assert y ** extremal.find_U(delta) <= n * (1.0 + 1e-9)
        assert n <= oracle.DESK_N


def test_seeded_inputs_raise_no_domain_errors():
    """A few draws through the library: no RootNotFoundError, no InfeasibleError."""
    for op in _seeded("paper-tables", range(1, 4)):
        if op.check == "round-trip-u":
            assert math.isfinite(extremal.delta_for_U(op.value("u")))
        else:
            assert extremal.find_U(op.value("delta")) > 1.0
    for op in _seeded("sieve-lab", range(1, 3)):
        k, delta, y, n = (op.value(v) for v in ("k", "delta", "y", "n"))
        spec = oracle.construct_tracking_spec(int(k), delta, y, 1.0, int(n))
        assert spec.assignment


@pytest.mark.parametrize("u", [4.9, 4.99, workloads.UDELTA_U_RANGE[1]])
def test_round_trip_holds_at_the_top_of_the_drawn_u_range(u):
    back = extremal.find_U(extremal.delta_for_U(u))
    assert abs(back - u) <= checks.ROUND_TRIP_TOL


@pytest.mark.xfail(strict=True, reason="delta_for_U stops at an absolute 1e-12 in delta")
def test_round_trip_at_u8_known_defect():
    """Fails while the defect stands; once it passes, widen UDELTA_U_RANGE
    back to (3, 8] and recapture reference/udelta-u8.out."""
    back = extremal.find_U(extremal.delta_for_U(8.0))
    assert abs(back - 8.0) <= checks.ROUND_TRIP_TOL


def test_corrupted_reference_byte_makes_error_rate_positive(tmp_path):
    clean = bench_run.Run("paper-tables", DEFAULT_SEED, ROOT)
    clean.warm_up()
    assert clean.failed() == 0, clean.failures

    refs = tmp_path / "reference"
    shutil.copytree(checks.REFERENCE_DIR, refs)
    target = refs / "table-u.out"
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01
    target.write_bytes(bytes(data))
    corrupted = bench_run.Run("paper-tables", DEFAULT_SEED, ROOT, reference_dir=refs)
    corrupted.warm_up()
    assert corrupted.failed() / corrupted.attempted > 0.0
    assert [f["op"] for f in corrupted.failures] == ["table-u"]
    assert "@@" in corrupted.failures[0]["why"]  # the diff is kept for the results file


def test_tracing_keeps_stdout_and_nests_spans():
    op = next(op for op in WORKLOADS["paper-tables"].fixed if op.id == "udelta-u4")
    plain = runner.fork_call(runner.execute, (op,))
    traced = runner.fork_call(runner.execute, (op,), trace=True)
    assert plain.error is None and traced.error is None
    assert traced.value == plain.value
    assert plain.spans is None and traced.spans
    # wrapping happened in the child only
    assert not hasattr(extremal.find_U, "__wrapped__")

    metrics = spans.pass_metrics([traced.spans])
    assert set(metrics) == set(spans.per_layer_names())
    assert metrics["extremal.delta_for_U.calls"] == 1
    assert metrics["extremal.delta_for_U.find_U_per_solve"] == metrics["extremal.find_U.calls"] > 1
    total = max(end for _, _, _, _, end, _ in traced.spans) - min(s[3] for s in traced.spans)
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s") and not k.startswith(("constants.all", "cli.render")))
    assert 0.0 < self_sum <= total + 1e-9


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
