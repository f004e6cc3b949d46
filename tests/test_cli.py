"""Command line surface: formats, exit codes, and byte determinism.

Determinism is checked through subprocess runs (in-process caching would
make the comparison vacuous); everything else drives main() directly and
reads capsys.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal_means import cli, extremal, verification
from extremal_means.cli import (
    _render_rows,
    fmt_sig,
    fmt_table,
    main,
    render_constants,
    render_table,
)
from extremal_means.verification import DATA_DIR

U_ROW = "2.0,0.442695041,0.721347520"


def run_cli(args: list[str], capsys) -> tuple[int, str, str]:
    code = main(args)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ------------------------------------------------------------- formatting


def test_fmt_table_pads_trailing_zeros():
    assert fmt_table(0.7213475205, 9) == "0.721347520"
    assert fmt_table(1.0, 9) == "1.00000000"
    assert fmt_table(0.0, 9) == "0.00000000"
    assert fmt_table(-0.06228418452231166, 10) == "-0.06228418452"


@given(st.floats(min_value=-1e6, max_value=1e6), st.integers(6, 15))
@settings(max_examples=120, deadline=None)
def test_fmt_table_round_trips_significant_digits(x, digits):
    # the padded fixed-point cell must parse back to exactly the
    # %.{digits}g rounding of the value
    assert float(fmt_table(x, digits)) == float(fmt_sig(x, digits))


# ----------------------------------------------------------------- tables


def test_table_u_output(capsys):
    code, out, err = run_cli(["table", "--grid", "u"], capsys)
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "u,delta,I"
    assert len(lines) == 16
    assert U_ROW in lines
    assert lines[1].startswith("1.6487212707,1.00000000,")


def test_table_k_output(capsys):
    code, out, err = run_cli(["table", "--grid", "k"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,delta,U,I,gamma_Sk"
    assert len(lines) == 15
    k5 = next(l for l in lines if l.startswith("5,"))
    assert k5.endswith(",0.7682091384")
    k4 = next(l for l in lines if l.startswith("4,"))
    assert k4.endswith(",")  # no odd-order constant at even orders


def test_table_kmax_truncates(capsys):
    code, out, _ = run_cli(["table", "--grid", "k", "--kmax", "6"], capsys)
    assert code == 0
    assert len(out.strip().split("\n")) == 4


def test_json_format(capsys):
    code, out, _ = run_cli(["table", "--grid", "u", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    rows = payload["rows"]
    assert len(rows) == 15
    assert set(rows[0]) == {"u", "delta", "I"}
    two = next(r for r in rows if r["u"] == "2.0")
    assert two["delta"] == "0.442695041" and two["I"] == "0.721347520"


def test_markdown_format(capsys):
    code, out, _ = run_cli(["table", "--grid", "u", "--format", "markdown"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "| u | delta | I |"
    assert lines[1] == "| --- | --- | --- |"
    assert len(lines) == 17
    assert all(l.startswith("| ") and l.endswith(" |") for l in lines[2:])


def test_csv_cells_are_format_stable():
    # re-formatting any parsed cell reproduces it byte for byte
    out = render_table("u")
    for line in out.strip().split("\n")[1:]:
        for cell in line.split(",")[1:]:
            assert fmt_table(float(cell), 9) == cell
    out = render_table("k")
    for line in out.strip().split("\n")[1:]:
        for cell in line.split(",")[1:]:
            if cell:
                assert fmt_table(float(cell), 10) == cell


# ------------------------------------------------------------ point values


def test_constants_output(capsys):
    code, out, _ = run_cli(["constants"], capsys)
    assert code == 0
    assert out.split("\n")[:5] == [
        "c2 = 0.7869386806",
        "c3 = 0.8199162143",
        "c4 = 0.8296539745, A0 = 0.5358665577",
        "A* = 0.520790102, B* = 0.06228418452",
        "c* = 0.5671432904, K = 2.866090198 (< 43/15)",
    ]
    code, out, _ = run_cli(["constants", "--which", "c2"], capsys)
    assert code == 0 and out == "c2 = 0.7869386806\n"


def test_dickman_point(capsys):
    code, out, _ = run_cli(["dickman", "--u", "2"], capsys)
    assert code == 0 and out.strip() == "0.3068528194"
    code, out, _ = run_cli(["dickman", "--u", "2", "--digits", "6"], capsys)
    assert out.strip() == "0.306853"


def test_udelta_both_directions(capsys):
    code, out, _ = run_cli(["udelta", "--delta", "0.2"], capsys)
    assert code == 0 and out.strip() == "2.382637377"
    code, out, _ = run_cli(["udelta", "--u", "2.382637377"], capsys)
    assert code == 0
    assert abs(float(out) - 0.2) < 1e-8


# the stored benchmark outputs of the commands whose numbers come from the
# zero searches (find_U, delta_for_U) and the mean grids read with them
# (table rows, the renewal kernel, the tracking targets), read only
BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


@pytest.mark.parametrize(
    "name, args",
    [
        ("table-u", ["table", "--grid", "u"]),
        ("table-k", ["table", "--grid", "k"]),
        ("table-k40", ["table", "--grid", "k", "--kmax", "40"]),
        ("udelta-u4", ["udelta", "--u", "4"]),
        ("udelta-u5", ["udelta", "--u", "5"]),
        ("udelta-u8", ["udelta", "--u", "8"]),
        ("udelta-d0.05", ["udelta", "--delta", "0.05"]),
        ("chi-extend-1.0", ["chi-extend", "--delta", "1.0"]),
        ("chi-extend-0.44", ["chi-extend", "--delta", "0.44"]),
        ("chi-extend-0.2", ["chi-extend", "--delta", "0.2"]),
        ("oracle-k3", ["oracle", "--k", "3", "--delta", "0.5", "--y", "1e3", "--n", "1000000"]),
        ("chi-extend-0.1", ["chi-extend", "--delta", "0.1"]),
    ],
)
def test_zero_search_outputs_match_the_benchmark_references(name, args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 0 and err == ""
    assert out.encode() == (BENCH_REFERENCE / f"{name}.out").read_bytes()


def test_sigma_grid_output(capsys):
    code, out, _ = run_cli(
        ["sigma", "--delta", "0.2", "--u-max", "1.5", "--step", "0.5", "--digits", "9"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "u,sigma"
    assert lines[1] == "0.0,1.00000000"
    assert lines[2] == "0.5,1.00000000"
    assert lines[3] == "1.0,1.00000000"
    # sigma(1.5) = 1 - 1.2 log 1.5
    assert lines[4].startswith("1.5,0.513")


def test_sigma_grid_reaches_a_horizon_off_the_step(capsys):
    # the march ends on the first node at or past --u-max, so the last
    # row is interpolated inside the grid, not clamped to sigma(2)
    code, out, _ = run_cli(
        ["sigma", "--delta", "0.3", "--u-max", "2.00005", "--step", "0.00005"], capsys
    )
    assert code == 0
    assert out.splitlines()[-2:] == ["2.0,0.09890866527", "2.00005,0.09887616700"]


def test_chi_extend_output(capsys):
    code, out, _ = run_cli(
        ["chi-extend", "--delta", "0.2", "--t-max", "6.0", "--step", "1.0"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,chi"
    assert lines[1] == "0.0,1.000000000"
    assert lines[2] == "1.0,-0.2000000000"


# ------------------------------------------------------------- exit codes


@pytest.mark.parametrize(
    "args",
    [
        ["table", "--grid", "k", "--kmax", "3"],
        ["dickman", "--u", "-1"],
        ["table", "--grid", "u", "--digits", "20"],
        ["udelta", "--delta", "1e-14"],
        ["sigma", "--delta", "0.2", "--step", "-1"],
        ["constants", "--which", "nope"],
        ["udelta", "--delta", "0.2", "--u", "2.0"],
        ["udelta", "--u", "1.2"],
        ["udelta", "--u", "1.0001"],
    ],
)
def test_domain_and_usage_errors_exit_2(args, capsys):
    code = main(args)
    assert code == 2
    cap = capsys.readouterr()
    assert cap.err != ""


@pytest.mark.parametrize(
    "args",
    [
        ["dickman", "--u", "3", "--digits", "0"],
        ["udelta", "--delta", "0.5", "--digits", "-1"],
        ["udelta", "--u", "2.5", "--digits", "16"],
    ],
)
def test_point_commands_range_check_digits(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: digits ")


@pytest.mark.parametrize(
    "args",
    [
        ["sigma", "--delta", "0.2", "--step", "1e-9"],
        ["chi-extend", "--delta", "0.5", "--h", "1e-8"],
        ["oracle", "--y", "100", "--n", "100000", "--u-step", "1e-9"],
        ["oracle", "--n", "100000000"],
    ],
)
def test_oversized_grids_exit_2_before_allocating(args, capsys):
    # uncapped, each of these asks numpy for gigabytes
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "args, span",
    [
        (["--t-max", "90", "--h", "5e-5", "--step", "1e-6"], "90.0"),
        (["--step", "1e-6"], str(4.0 * math.sqrt(math.e))),
    ],
)
def test_chi_extend_refuses_an_oversized_grid_before_the_march(args, span, capsys, monkeypatch):
    # the span is at least t_max, or 4U >= 4 sqrt(e) by default
    def no_march(*a, **kw):
        raise AssertionError("extend_chi marched")

    monkeypatch.setattr(cli, "extend_chi", no_march)
    code, out, err = run_cli(["chi-extend", "--delta", "0.3", *args], capsys)
    assert code == 2 and out == ""
    assert err == f"error: step 1e-06 over a span of {span} gives more than 100000 rows\n"


@pytest.mark.parametrize("u_max", ["nan", "-1", "inf"])
def test_sigma_names_a_bad_u_max(u_max, capsys):
    code, out, err = run_cli(["sigma", "--delta", "0.3", f"--u-max={u_max}"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: u_max must be finite and positive, got {float(u_max)}\n"


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "table.csv"
    code = main(["table", "--grid", "u", "--output", str(dest)])
    cap = capsys.readouterr()
    assert code == 0 and cap.out == ""
    code, out, _ = run_cli(["table", "--grid", "u", "--output", "-"], capsys)
    assert dest.read_text() == out


def test_unwritable_output_exits_2(tmp_path, capsys):
    dest = tmp_path / "missing" / "c.txt"
    code, out, err = run_cli(["constants", "--output", str(dest)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(dest) in err


# ------------------------------------------------------------------- fuzz

# One cheap valid command per entry: the fixed arguments, then the numeric
# flags with their base values.  The fuzz test sets one of those flags to
# a hostile value and keeps the others at their base.
FUZZ_BASES = [
    (["dickman"], {"--u": "3", "--digits": "10"}),
    (["sigma"], {"--delta": "0.3", "--u-max": "3", "--step": "0.5", "--digits": "10"}),
    (["udelta"], {"--delta": "0.5", "--digits": "10"}),
    (["udelta"], {"--u": "2.5", "--digits": "10"}),
    (["table", "--grid", "k"], {"--kmax": "5", "--digits": "10"}),
    (
        ["chi-extend"],
        {"--delta": "0.5", "--t-max": "4", "--h": "0.01", "--step": "0.5", "--digits": "10"},
    ),
    (
        ["oracle"],
        {"--k": "2", "--delta": "1", "--y": "10", "--n": "1000", "--a": "1", "--u-step": "0.5"},
    ),
]
FUZZ_CASES = [(fixed, base, flag) for fixed, base in FUZZ_BASES for flag in base]
HOSTILE = ["nan", "inf", "-inf", "0", "-0.0", "-1", "5e-324", "1e-9", "1e12", "1e300"]


@pytest.mark.parametrize("value", HOSTILE)
@pytest.mark.parametrize(
    ("fixed", "base", "flag"), FUZZ_CASES, ids=[" ".join(c[0]) + " " + c[2] for c in FUZZ_CASES]
)
def test_fuzz_one_hostile_flag(fixed, base, flag, value):
    argv = list(fixed)
    for name, base_value in base.items():
        # --name=value, so argparse reads "-inf" as a value and not a flag
        argv.append(f"{name}={value if name == flag else base_value}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert out.getvalue() == "", argv


# ------------------------------------------------------------ determinism


@pytest.mark.parametrize(
    "args",
    [
        ["table", "--grid", "u"],
        ["table", "--grid", "k"],
        ["constants"],
    ],
)
def test_byte_identical_across_processes(args):
    cmd = [sys.executable, "-m", "extremal_means.cli", *args]
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0


def test_in_process_determinism_check_recomputes_the_tables(monkeypatch):
    # a compute_I that drifts from call to call must fail the check; a
    # second render read from the table caches would hide the drift
    calls = itertools.count()
    compute_I = extremal.compute_I
    monkeypatch.setattr(
        extremal, "compute_I", lambda *a, **kw: compute_I(*a, **kw) + 1e-6 * next(calls)
    )
    assert not verification._check_cli_deterministic().ok


# ----------------------------------------------------------- verify wiring


def test_verify_fast_passes(capsys):
    code, out, _ = run_cli(["verify", "--suite", "fast"], capsys)
    assert code == 0
    assert "all" in out and "checks passed" in out
    assert "FAIL" not in out


def test_verify_names_corrupted_golden_row(tmp_path, capsys):
    # fault injection: a corrupted golden cell must flip the exit code
    # and the report must name the offending row
    bad = tmp_path / "golden"
    bad.mkdir()
    for name in ("table_u.csv", "table_k.csv"):
        shutil.copy(DATA_DIR / name, bad / name)
    text = (bad / "table_u.csv").read_text()
    assert "0.442695041" in text
    (bad / "table_u.csv").write_text(text.replace("0.442695041", "0.442795041"))
    code, out, _ = run_cli(["verify", "--suite", "fast", "--golden-dir", str(bad)], capsys)
    assert code == 1
    assert "FAIL  golden-table-u" in out
    assert "row u=2.0" in out and "column delta" in out
    assert "1 of" in out and "checks failed" in out


def test_verify_on_a_missing_golden_dir_is_a_usage_error(tmp_path, capsys):
    # a bad path is the caller's error, not a failed check: exit 2, no check run
    missing = tmp_path / "missing"
    code, out, err = run_cli(["verify", "--golden-dir", str(missing)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: golden_dir must be an existing directory, got {missing}\n"


def test_verify_gates_k_table_mean_column(tmp_path, capsys):
    # the k-grid I column is gated like the others: a wrong mean cell fails
    bad = tmp_path / "golden"
    bad.mkdir()
    for name in ("table_u.csv", "table_k.csv"):
        shutil.copy(DATA_DIR / name, bad / name)
    text = (bad / "table_k.csv").read_text()
    assert text.count(",0.5853116139,") == 1
    (bad / "table_k.csv").write_text(text.replace(",0.5853116139,", ",0.5853126139,"))
    code, out, _ = run_cli(["verify", "--suite", "fast", "--golden-dir", str(bad)], capsys)
    assert code == 1
    assert "FAIL  golden-table-k" in out
    assert "row k=13" in out and "column I " in out


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: render_table("x"), r"^grid must be 'u' or 'k', got 'x'$"),
        (lambda: render_constants("c5"), r"^unknown constant group 'c5'$"),
        (lambda: _render_rows(["a"], [["1"]], "xml"), r"^unknown format 'xml'$"),
        (lambda: verification.run_checks("all"), r"^suite must be 'fast' or 'full', got 'all'$"),
    ],
)
def test_library_renderers_reject_unknown_names(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_a_check_that_raises_is_a_failed_row(monkeypatch):
    def broken():
        raise RuntimeError("boom")

    monkeypatch.setattr(verification, "_check_dickman_total", broken)
    rows = {r.name: r for r in verification.run_checks("fast")}
    assert not rows["dickman-total-integral"].ok
    assert rows["dickman-total-integral"].detail == "raised RuntimeError: boom"
    assert sum(not r.ok for r in rows.values()) == 1


def test_golden_check_counts_the_rows(tmp_path):
    lines = (DATA_DIR / "table_u.csv").read_text().splitlines(keepends=True)
    (tmp_path / "table_u.csv").write_text("".join(lines[:-1]))
    got = verification._check_golden(tmp_path, "u")
    assert not got.ok
    assert got.detail == f"table_u.csv: {len(lines) - 2} rows, expected {len(lines) - 1}"
