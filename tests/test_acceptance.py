"""Acceptance gate: one test per shipped criterion, one line per result.

Each test prints `[criterion N] PASS/FAIL` with a short detail and then
asserts that its failure list is empty, so the verdict is visible both
in the printed line and in the pytest report.  Reference digit strings
live in this file and in the golden CSVs.  Where a reference disagreed
with the defining closed form or identity, it was corrected from a
30-digit evaluation of that closed form, never by moving a gate:

* the k-grid `I` column (criterion 2) now holds (1/U) int_0^U sigma;
  the digits printed before are kept as `I_printed`, which equals
  I + (1 - 1/U) int_2^U (sigma - s1) (the second-band correction added
  without its 1/U), and criterion 2 checks that explanation;
* the `c3` and `A*` strings (criterion 3) are their closed forms
  rounded to 10 places.

`test_reference_digits_mpmath` re-derives these references at 30 digits
without the package's quadrature and is skipped where mpmath is missing.
"""

from __future__ import annotations

import csv
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from extremal_means.chi_renewal import extend_chi, kernel_mass, verify_sigma_vanishes
from extremal_means.cli import main as cli_main
from extremal_means.constants import (
    extremize_order4,
    optimize_average_bound,
    order_constant,
    unit_disc_bounds,
)
from extremal_means.dickman import dde_residual_max, rho, rho_total_integral
from extremal_means.extremal import chi_delta, find_U, table_by_first_zero, table_by_order
from extremal_means.oracle import (
    build_f,
    build_g,
    construct_tracking_spec,
    coprime_power_sum,
    divisor_correlation,
    divisor_domination_check,
    random_spec,
    sandwich_check,
    sieve_primes,
    tracking_rows,
)
from extremal_means.piecewise import integrate_callable
from extremal_means.sigma import sigma_closed, sigma_dde, solve_volterra
from extremal_means.verification import DATA_DIR

FIVE_DELTAS = (0.05, 0.1, 0.3, 0.5, 1.0)

# 10-digit constants, each its closed form correctly rounded (criterion 3)
C3_DIGITS = "0.8199162143"
A_STAR_DIGITS = "0.5207901020"


def finish(n: int, failures: list[str], detail: str) -> None:
    print(f"[criterion {n}] {'FAIL' if failures else 'PASS'}: {detail}")
    for msg in failures:
        print(f"    - {msg}")
    assert not failures, f"criterion {n}: " + " | ".join(failures)


def read_golden(name: str) -> list[dict[str, str]]:
    with open(DATA_DIR / name, newline="") as fh:
        return list(csv.DictReader(fh))


def test_criterion_1_first_zero_table():
    t0 = time.perf_counter()
    rows = table_by_first_zero()
    elapsed = time.perf_counter() - t0
    failures: list[str] = []
    golden = read_golden("table_u.csv")
    if len(rows) != 15:
        failures.append(f"expected 15 rows, got {len(rows)}")
    worst = 0.0
    for g, row in zip(golden, rows):
        for col, have in (("u", row.key), ("delta", row.delta), ("I", row.I)):
            dev = abs(float(g[col]) - have)
            worst = max(worst, dev)
            if dev > 1e-7:
                failures.append(f"u={g['u']}: column {col} off by {dev:.2e}")
    spot = next(r for r in rows if abs(r.key - 2.0) < 1e-12)
    if abs(spot.delta - 0.442695041) > 1e-7 or abs(spot.I - 0.721347520) > 1e-7:
        failures.append(f"u=2 spot row drifted: delta={spot.delta!r}, I={spot.I!r}")
    if elapsed > 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    finish(1, failures, f"15 rows within 1e-7 (worst {worst:.1e}), {elapsed:.2f}s")


def second_band_excess(delta: float, U: float) -> float:
    """int_2^U (sigma - s1) du, with s1(u) = 1 - (1+delta) log u the [1, 2] closed form."""

    def excess(us: np.ndarray) -> np.ndarray:
        closed = np.array([sigma_closed(delta, float(u)) for u in us])
        return closed - (1.0 - (1.0 + delta) * np.log(us))

    return integrate_callable(excess, 2.0, U, tol=1e-12).value


def test_criterion_2_order_table():
    t0 = time.perf_counter()
    rows = table_by_order(17)
    elapsed = time.perf_counter() - t0
    failures: list[str] = []
    golden = read_golden("table_k.csv")
    if len(rows) != 14:
        failures.append(f"expected 14 rows, got {len(rows)}")
    worst_printed = 0.0
    for g, row in zip(golden, rows):
        cols = [("delta", row.delta), ("U", row.U), ("I", row.I)]
        if g["gamma_Sk"]:
            cols.append(("gamma_Sk", row.gamma_Sk))
        for col, have in cols:
            dev = abs(float(g[col]) - have)
            if dev > 1e-7:
                failures.append(f"k={g['k']}: column {col} off by {dev:.2e}")
        # the printed digits: the second-band correction without its 1/U
        explained = row.I + (1.0 - 1.0 / row.U) * second_band_excess(row.delta, row.U)
        dev = abs(float(g["I_printed"]) - explained)
        worst_printed = max(worst_printed, dev)
        if dev > 1e-9:
            failures.append(f"k={g['k']}: I_printed off its explanation by {dev:.2e}")
    spot = next(r for r in rows if r.key == 13)
    for name, have, want in (
        ("U", spot.U, 2.840582242),
        ("I", spot.I, 0.5853116139),
        ("gamma_Sk", spot.gamma_Sk, 0.7842851149),
    ):
        if abs(have - want) > 1e-7:
            failures.append(f"k=13 spot column {name}: computed {have:.10f} vs listed {want}")
    if elapsed > 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    finish(
        2,
        failures,
        "delta, U, I, gamma_Sk columns match the golden digits to 1e-7; I_printed equals "
        f"I + (1 - 1/U) int_2^U (sigma - s1) to {worst_printed:.1e}; {elapsed:.2f}s",
    )


def test_criterion_3_constants():
    t0 = time.perf_counter()
    c2 = order_constant(2).value
    c3 = order_constant(3).value
    c4 = extremize_order4()
    disc = unit_disc_bounds()
    avg = optimize_average_bound()
    elapsed = time.perf_counter() - t0
    failures: list[str] = []

    def gate(name: str, have: float, digits: str, tol: float, closed: str) -> None:
        dev = abs(have - float(digits))
        if dev > tol:
            failures.append(
                f"{name} = {have:.16f} ({closed}) vs reference digits {digits}: "
                f"gap {dev:.2e} exceeds {tol:.0e}; the closed form is kept"
            )

    gate("c2", c2, "0.7869386806", 1e-9, "2 - 2/sqrt(e)")
    # superseded "0.8199164429" sat 2.29e-7 from the closed form, whose
    # a = e^(-2/3) minimizes the average F(a) = 4/3 - a/3 + a log a over
    # the switch point; F(a) equals the old string at a ~ 0.51293 and
    # 0.51390 (an unconverged minimization would fit, nothing proves it)
    gate("c3", c3, C3_DIGITS, 1e-9, "4/3 - e^(-2/3)")
    gate("c4", c4.value, "0.8296539741", 1e-9, "slice extremum")
    gate("A0", c4.argmin_or_max, "0.5358665582", 1e-8, "2 log((3-sqrt(2))/2) + 1")
    # superseded "0.5207901030" sat 1.01e-9 from the closed form
    # 0.52079010198551..., a wrong last digit
    gate("A*", disc.A_star, A_STAR_DIGITS, 1e-9, "2 log(2(sqrt(e)-1))")
    gate("B*", disc.B_star, "0.062284", 1e-6, "A* - 2 + 2 e^(-A*/2)")
    if not disc.check_34_35 or 1.0 - 33.0 * disc.B_star / 70.0 > 34.0 / 35.0:
        failures.append("chain 1 - 33 B*/70 <= 34/35 does not hold")
    gate("c*", avg.c_star, "0.5671432904", 1e-9, "root of e^(-c) = c")
    if not 2.8656 < avg.K < 43.0 / 15.0:
        failures.append(f"K = {avg.K!r} outside (2.8656, 43/15)")
    if elapsed > 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    finish(3, failures, f"ten gates, {elapsed:.3f}s")


def test_reference_digits_mpmath():
    """30-digit oracle for the criterion-2 I/U cells and the criterion-3 c3/A* strings.

    On [2, 3] sigma is taken as 1 - (1+delta) log u + (1+delta)^2 int_2^u log(t-1)/t dt,
    not the package's quadrature form; every k-grid first zero lies on that branch.
    """
    mp = pytest.importorskip("mpmath")
    failures: list[str] = []
    half_unit = mp.mpf("5e-11")
    with mp.workdps(30):

        def log_ratio(t):
            return mp.log(t - 1) / t

        for g in read_golden("table_k.csv"):
            d = mp.mpf(1) / (int(g["k"]) - 1)

            def s1(u):
                return 1 - (1 + d) * mp.log(u)

            def sigma(u):
                return s1(u) + (1 + d) ** 2 * mp.quad(log_ratio, [2, u])

            U = mp.findroot(sigma, (2, 3), solver="anderson")
            if not 2 < U < 3:
                failures.append(f"k={g['k']}: U = {U} off the closed branch")
                continue
            # int_2^U sigma with the inner integral swapped out
            band3 = mp.quad(s1, [2, U]) + (1 + d) ** 2 * mp.quad(
                lambda t: (U - t) * log_ratio(t), [2, U]
            )
            I = (1 + mp.quad(s1, [1, 2]) + band3) / U
            if abs(mp.mpf(g["I"]) - I) > half_unit:
                failures.append(f"k={g['k']}: I cell {g['I']} vs oracle {mp.nstr(I, 15)}")
            if abs(mp.mpf(g["U"]) - U) > 1e-7:
                failures.append(f"k={g['k']}: U cell {g['U']} vs oracle {mp.nstr(U, 15)}")

        # c3: the log-scaled order-3 profile average, minimized over its switch point a
        def average(a):
            return mp.mpf(1) / 2 + (a - mp.mpf(1) / 2) + mp.quad(
                lambda s: mp.mpf(1) / 3 - mp.log(s), [a, 1]
            )

        c3 = average(mp.findroot(lambda a: mp.diff(average, a), mp.mpf(1) / 2))

        # A*: the crossing of the rising and falling unit-disc deficiency bounds
        def gap(A):
            return (A - 2 + 2 * mp.exp(-A / 2)) - (2 * mp.exp((1 - A) / 2) + A - 3)

        A_star = mp.findroot(gap, (0, 1), solver="anderson")
        for name, have, digits in (("c3", c3, C3_DIGITS), ("A*", A_star, A_STAR_DIGITS)):
            if abs(mp.mpf(digits) - have) > half_unit:
                failures.append(f"{name} string {digits} vs oracle {mp.nstr(have, 15)}")
    assert not failures, " | ".join(failures)


def test_criterion_4_density_suite():
    failures: list[str] = []
    dev = abs(rho(2.0) - (1.0 - math.log(2.0)))
    if dev > 1e-10:
        failures.append(f"rho(2) off closed form by {dev:.2e}")
    # independent quadrature oracle for the third unit interval
    oracle = (
        1.0
        - math.log(2.0)
        - integrate_callable(lambda t: (1.0 - np.log(t - 1.0)) / t, 2.0, 3.0, tol=1e-13).value
    )
    dev = abs(rho(3.0) - oracle)
    if dev > 1e-9:
        failures.append(f"rho(3) off the quadrature oracle by {dev:.2e}")
    dev = abs(rho_total_integral(20.0) - math.exp(np.euler_gamma))
    if dev > 1e-6:
        failures.append(f"total integral off e^gamma by {dev:.2e}")
    res = dde_residual_max(1.5, 10.0)
    if res > 1e-8:
        failures.append(f"delay-equation residual {res:.2e} exceeds 1e-8 on [1.5, 10]")
    finish(4, failures, "closed values, total integral, residual")


def test_criterion_5_solver_cross_validation():
    failures: list[str] = []
    worst = 0.0
    for delta in FIVE_DELTAS:
        sol = sigma_dde(delta, 3.0, richardson=True)
        h, vals = sol.h, sol.values
        us_a = np.round(np.arange(1.0, 2.0 + 1e-12, 0.002), 10)
        ia = np.rint(us_a / h).astype(int)
        err = max(abs(vals[i] - sigma_closed(delta, u)) for i, u in zip(ia, us_a.tolist()))
        for u in np.round(np.arange(2.02, 3.0 + 1e-12, 0.02), 10):
            err = max(err, abs(vals[round(u / h)] - sigma_closed(delta, float(u))))
        worst = max(worst, err)
        if err > 1e-8:
            failures.append(f"delta={delta}: marched vs closed max error {err:.2e}")
    # explicit-kernel route at the same step
    delta = 0.3
    U = find_U(delta)
    vol = solve_volterra(chi_delta(delta), 3.0, h=1e-4)
    us = np.round(np.arange(1.0, min(U, 2.0) - 1e-9, 0.01), 10)
    iv = np.rint(us / vol.h).astype(int)
    verr = max(abs(vol.values[i] - sigma_closed(delta, u)) for i, u in zip(iv, us.tolist()))
    for u in np.round(np.arange(2.01, U - 1e-9, 0.01), 10):
        verr = max(verr, abs(vol.values[round(u / vol.h)] - sigma_closed(delta, float(u))))
    if verr > 1e-6:
        failures.append(f"volterra vs closed max error {verr:.2e} at h=1e-4")
    for delta in FIVE_DELTAS:
        dev = abs(kernel_mass(delta) - 1.0)
        if dev > 1e-8:
            failures.append(f"delta={delta}: kernel mass off unity by {dev:.2e}")
    finish(5, failures, f"five-delta closed-form agreement (worst {worst:.1e}), kernel route, mass")


def test_criterion_6_extension_suite():
    t0 = time.perf_counter()
    failures: list[str] = []
    for delta in (0.1, 0.2, 0.44):
        ext = extend_chi(delta)
        U = ext.U
        lo, hi = float(np.min(ext.samples)), float(np.max(ext.samples))
        if lo < -delta - 1e-12 or hi > 1.0 + 1e-12:
            failures.append(f"delta={delta}: extension range [{lo:.6f}, {hi:.6f}]")
        jump = float(np.max(np.abs(np.diff(ext.samples))))
        if jump > 10.0 * ext.h:
            failures.append(f"delta={delta}: grid jump {jump:.2e} exceeds 10h")
        tail = verify_sigma_vanishes(ext, 3.0 * U)
        if tail > 1e-6:
            failures.append(f"delta={delta}: max |sigma| {tail:.2e} on [U, 3U]")
        # control: with the window left at -delta the mean crosses below
        ctrl = sigma_dde(delta, math.ceil(U) + 1.0, richardson=True)
        iu = round(U / ctrl.h)
        low = float(np.min(ctrl.values[iu : iu + round(1.0 / ctrl.h)]))
        if low >= -1e-3:
            failures.append(f"delta={delta}: control only reaches {low:.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    finish(6, failures, f"three deltas, range/continuity/vanishing/control, {elapsed:.1f}s")


def test_criterion_7_small_drift_envelope():
    failures: list[str] = []
    us = np.round(np.arange(1.0, 6.0 + 1e-12, 0.05), 10)
    correction = np.array(
        [
            integrate_callable(
                lambda t: rho(u - t) / t,
                1.0,
                u,
                tol=1e-11,
                breakpoints=[u - 2.0, u - 1.0],
            ).value
            if u > 1.0
            else 0.0
            for u in us
        ]
    )
    rho_vals = rho(us)
    worst_ratio = 0.0
    for delta in (0.01, 0.05, 0.1):
        sol = sigma_dde(delta, 6.0, richardson=True)
        iu = np.rint(us / sol.h).astype(int)
        gap = np.max(np.abs(sol.values[iu] - (rho_vals - delta * correction)))
        worst_ratio = max(worst_ratio, float(gap) / delta**2)
        if gap > delta**2:
            failures.append(f"delta={delta}: envelope gap {gap:.2e} exceeds delta^2 {delta**2:.1e}")
    finish(7, failures, f"first-order envelope on [1, 6]; worst gap/delta^2 = {worst_ratio:.2f}")


def test_criterion_8_sieve_property_suite():
    t0 = time.perf_counter()
    failures: list[str] = []
    for k, seed, zp in ((2, 11, 0.0), (3, 12, 0.3), (4, 13, 0.2)):
        spec = random_spec(k, 10.0, 10**5, seed=seed, zero_probability=zp)
        f = build_f(spec, 10**5)
        bad = divisor_domination_check(f, 10**5)
        if bad:
            failures.append(f"order {k} seed {seed}: {bad} domination violations")
        defect = sandwich_check(build_g(f), 10**5)
        if defect > 1e-12:
            failures.append(f"order {k} seed {seed}: sandwich defect {defect:.2e}")
    f4 = build_f(random_spec(4, 10.0, 10**5, seed=7), 10**5)
    h = divisor_correlation(f4, 10**4)
    d = np.zeros(10**4 + 1)
    for a in range(1, 10**4 + 1):
        d[a::a] += 1.0
    if not np.all(np.abs(h[1:]) <= d[1:] + 1e-9):
        failures.append("correlation exceeds the divisor count somewhere on n <= 1e4")
    for k in range(1, 25):
        for l in range(1, k + 1):
            if k % l == 0:
                lhs, rhs = coprime_power_sum(k, l)
                if abs(lhs - rhs) > 1e-9:
                    failures.append(f"coprime power sum mismatch at k={k}, l={l}")
    # desk construction, timed fresh
    spec = construct_tracking_spec(2, 1.0, 1e4, 1.0, 4_000_000)
    f = build_f(spec, 4_000_000)
    U = find_U(1.0)
    us = [float(u) for u in np.arange(1.0, U, 0.05)] + [U]
    rows = tracking_rows(f, 1e4, 1.0, us)
    worst = max(r.deviation for r in rows)
    if worst > 0.15:
        failures.append(f"desk construction tracking deviation {worst:.3f} exceeds 0.15")
    log_gap = abs(rows[-1].log_mean.real - (2.0 - 2.0 / math.sqrt(math.e)))
    if log_gap > 0.1:
        failures.append(f"desk log mean lands {log_gap:.3f} from the order-2 constant")
    elapsed = time.perf_counter() - t0
    if elapsed > 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 2min")
    finish(
        8,
        failures,
        f"inequalities, identity, desk tracking {worst:.3f} / log gap {log_gap:.1e}, {elapsed:.1f}s",
    )


def test_criterion_9_determinism():
    failures: list[str] = []
    for args in (["table", "--grid", "u"], ["table", "--grid", "k"], ["constants"]):
        cmd = [sys.executable, "-m", "extremal_means.cli", *args]
        first = subprocess.run(cmd, capture_output=True, timeout=300)
        second = subprocess.run(cmd, capture_output=True, timeout=300)
        if first.returncode or second.returncode:
            failures.append(f"{' '.join(args)}: nonzero exit")
        elif first.stdout != second.stdout:
            failures.append(f"{' '.join(args)}: outputs differ across processes")
    code = cli_main(["verify", "--suite", "full"])
    if code != 0:
        failures.append(f"verify --suite full exited {code}")
    finish(9, failures, "byte-identical table/constants runs; full self-check suite exits 0")
