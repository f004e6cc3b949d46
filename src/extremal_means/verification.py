"""Self-check suite behind the `verify` subcommand.

Every check recomputes a quantity two independent ways, or compares a
computed table against the golden CSVs shipped in data/.  A check never
raises out of run_checks: failures (including unexpected exceptions)
come back as CheckResult rows so the caller can print one line each and
exit nonzero if any failed.

The fast suite keeps away from the 4*10^6-scale sieve runs; `full` adds
them (a few extra seconds).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import chi_renewal, constants, dickman, extremal, oracle, sigma
from .piecewise import integrate_callable

DATA_DIR = Path(__file__).resolve().parent / "data"

@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _result(name: str, dev: float, tol: float, label: str = "max dev") -> CheckResult:
    return CheckResult(name, dev <= tol, f"{label} {dev:.3e} (tol {tol:.1e})")


# ---------------------------------------------------------------- dickman


def _check_dickman_closed() -> CheckResult:
    dev = max(
        abs(dickman.rho(0.5) - 1.0),
        abs(dickman.rho(2.0) - (1.0 - math.log(2.0))),
    )
    # one more branch: rho(3) against a direct quadrature of the step
    # from 2, using only the closed [1,2] values under the integral
    def tail(t: np.ndarray) -> np.ndarray:
        return (1.0 - np.log(t - 1.0)) / t

    rho3 = (1.0 - math.log(2.0)) - integrate_callable(tail, 2.0, 3.0, tol=1e-13).value
    dev = max(dev, abs(dickman.rho(3.0) - rho3))
    return _result("dickman-closed-values", dev, 1e-9)


def _check_dickman_total() -> CheckResult:
    total = dickman.rho_total_integral(20.0)
    dev = abs(total - math.exp(np.euler_gamma))
    return _result("dickman-total-integral", dev, 1e-6, "|int - e^gamma|")


def _check_dickman_residual() -> CheckResult:
    res = dickman.dde_residual_max(1.5, 10.0)
    return _result("dickman-dde-residual", res, 1e-8, "max residual")


# ------------------------------------------------------------------ sigma


def _closed_reference(delta: float, us: np.ndarray) -> np.ndarray:
    return np.array([sigma.sigma_closed(delta, float(u)) for u in us])


def _check_sigma_closed_vs_marched() -> CheckResult:
    us = np.arange(1.0, 3.0 + 1e-12, 0.01)
    worst = 0.0
    worst_delta = 0.0
    for delta in (0.05, 0.1, 0.3, 0.5, 1.0):
        sol = sigma.sigma_dde(delta, 3.0, richardson=True)
        dev = float(np.max(np.abs(sol.value_cubic(us) - _closed_reference(delta, us))))
        if dev > worst:
            worst, worst_delta = dev, delta
    return _result(
        "sigma-marched-vs-closed", worst, 1e-8, f"max dev (delta={worst_delta})"
    )


def _check_volterra_vs_closed() -> CheckResult:
    delta = 0.3
    grid = sigma.solve_volterra(extremal.chi_delta(delta), 3.0, h=1e-4)
    us = np.arange(0.0, 3.0 + 1e-12, 0.01)
    U = extremal.find_U(delta)
    # past the first zero the cutoff solution leaves the no-cutoff closed
    # form; compare on [0, U] where the two coincide
    us = us[us <= U]
    dev = float(np.max(np.abs(grid.value_cubic(us) - _closed_reference(delta, us))))
    return _result("volterra-vs-closed", dev, 1e-6)


def _check_kernel_mass() -> CheckResult:
    dev = max(
        abs(chi_renewal.kernel_mass(0.1) - 1.0),
        abs(chi_renewal.kernel_mass(0.44) - 1.0),
    )
    return _result("renewal-kernel-mass", dev, 1e-8, "max |mass - 1|")


def _check_envelope() -> CheckResult:
    us = np.arange(1.0, 6.0 + 1e-12, 0.05)
    # (rho(u), T1(u)) once per u: the first-order mean is rho - delta T1
    terms = [(float(dickman.rho(float(u))), sigma.series_first_term(float(u))) for u in us]
    worst_ratio = 0.0
    for delta in (0.01, 0.05, 0.1):
        sol = sigma.sigma_dde(delta, 6.0, richardson=True)
        marched = sol.value_cubic(us)
        for (rho_u, t1), m in zip(terms, marched):
            dev = abs(m - (rho_u - delta * t1))
            worst_ratio = max(worst_ratio, dev / delta**2)
    return _result(
        "series-envelope", worst_ratio, 1.0, "max |sigma - (rho - delta T1)| / delta^2"
    )


# ------------------------------------------------------------- first zero


def _check_zero_round_trip() -> CheckResult:
    dev = 0.0
    for delta in (0.08, 0.2, 0.5, 1.0):
        dev = max(dev, abs(extremal.delta_for_U(extremal.find_U(delta)) - delta))
    return _result("first-zero-round-trip", dev, 1e-8)


def _check_zero_monotone() -> CheckResult:
    deltas = np.arange(0.05, 1.0 + 1e-12, 0.05)
    us = [extremal.find_U(float(d)) for d in deltas]
    drops = [us[i] - us[i + 1] for i in range(len(us) - 1)]
    ok = all(d > 0 for d in drops)
    return CheckResult(
        "first-zero-monotone",
        ok,
        f"U spans [{us[-1]:.6f}, {us[0]:.6f}] over delta 0.05..1, min step {min(drops):.2e}",
    )


def _check_zero_branch_seam() -> CheckResult:
    d = extremal.CLOSED_FORM_DELTA
    dev = max(
        abs(extremal.find_U(d) - extremal.find_U(d, use_closed_form=False)),
        abs(extremal.find_U(d + 1e-9) - extremal.find_U(d + 1e-9, use_closed_form=False)),
    )
    return _result("first-zero-branch-seam", dev, 1e-10)


def _check_mean_small_delta() -> CheckResult:
    # as the drift vanishes the mean tends to e^gamma / U; at finite
    # delta the gap is O(delta)
    worst = 0.0
    for delta in (0.02, 0.05, 0.1):
        U = extremal.find_U(delta)
        I = extremal.compute_I(delta, U=U)
        gap = abs(I - math.exp(np.euler_gamma) / U)
        worst = max(worst, gap / (2.0 * delta))
    return _result("mean-small-drift-limit", worst, 1.0, "max |I - e^g/U| / (2 delta)")


# ---------------------------------------------------------------- renewal


def _check_extension() -> CheckResult:
    delta = 0.2
    ext = chi_renewal.extend_chi(delta)
    vals = ext.samples
    in_range = float(np.max(np.maximum(vals - 1.0, -delta - vals)))
    step = float(np.max(np.abs(np.diff(vals))))
    resid = chi_renewal.verify_sigma_vanishes(ext, 3.0 * ext.U)
    ok = in_range <= 1e-12 and step <= 10.0 * ext.h and resid <= 1e-6
    return CheckResult(
        "renewal-extension",
        ok,
        f"range excess {in_range:.1e}, max sample step {step:.2e}, max |mean| {resid:.2e}",
    )


# -------------------------------------------------------------- constants


def _check_constants_order() -> CheckResult:
    c2 = constants.order_constant(2).value
    c3 = constants.order_constant(3).value
    c4 = constants.order_constant(4)
    dev = abs(c2 - (2.0 - 2.0 / math.sqrt(math.e)))
    dev = max(dev, abs(c3 - (4.0 / 3.0 - math.exp(-2.0 / 3.0))))
    dev = max(dev, abs(c4.value - 0.8296539745260567))
    # the slice must be stationary at the closed-form maximizer
    def slice_at(a: float) -> float:
        return constants.order4_bound(a, 0.5 * (1.0 - a))

    a0, eps = c4.argmin_or_max, 1e-6
    dev = max(dev, abs(slice_at(a0 + eps) - slice_at(a0 - eps)) / (2.0 * eps))
    dev = max(dev, abs(constants.order3_profile_average(math.exp(4.0)) - c3))
    monotone = c2 < c3 < c4.value < constants.ORDER_LIMIT_VALUE
    seam = 0.0
    eps = 1e-9
    for a, b in ((math.log(2.0) - 0.2, 0.2), (0.1, math.log(2.0))):
        seam = max(
            seam,
            abs(constants.order4_bound(a + eps, b) - constants.order4_bound(a - eps, b)),
            abs(constants.order4_bound(a, b + eps) - constants.order4_bound(a, b - eps)),
        )
    ok = dev <= 1e-8 and monotone and seam <= 1e-7
    return CheckResult(
        "constants-order-ladder",
        ok,
        f"max dev {dev:.2e}, seam gap {seam:.2e}, ladder monotone: {monotone}",
    )


def _check_constants_disc() -> CheckResult:
    b = constants.unit_disc_bounds()
    # B* must sit on both bounds: the rising one and the falling one
    dev = abs(b.B_star - (2.0 * math.exp(0.5 * (1.0 - b.A_star)) + b.A_star - 3.0))
    dev = max(dev, abs(b.B_star - (b.A_star - 2.0 + 2.0 * math.exp(-b.A_star / 2.0))))
    ok = dev <= 1e-10 and b.check_34_35 and (1.0 - 33.0 * b.B_star / 70.0) <= 34.0 / 35.0
    return CheckResult(
        "constants-disc-crossing", ok, f"max dev {dev:.2e}, 34/35 bound: {b.check_34_35}"
    )


def _check_constants_average() -> CheckResult:
    r = constants.optimize_average_bound()
    dev = abs(math.exp(-r.c_star) - r.c_star)
    dev = max(dev, abs(r.K - 2.8660901984124547))
    ok = dev <= 1e-9 and 2.8656 < r.K < 43.0 / 15.0
    return CheckResult(
        "constants-average-bound",
        ok,
        f"fixed-point dev {dev:.2e}, K = {r.K:.10f} in (2.8656, 43/15)",
    )


def _check_deficiency_forms() -> CheckResult:
    dev = abs(constants.deficiency_bound(1.0, "final") - (2.0 - 2.0 / math.sqrt(math.e)))
    dev = max(dev, abs(constants.deficiency_bound(0.5, "first") - 0.75))
    dev = max(
        dev,
        abs(
            constants.deficiency_bound(0.25, "final")
            - (3.0 - 0.25 - 2.0 * math.exp(-0.125))
        ),
    )
    return _result("deficiency-closed-forms", dev, 1e-12)


# ----------------------------------------------------------------- golden


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_golden(golden_dir: Path, grid: str) -> CheckResult:
    """Every cell of one summary table against its golden CSV at 1e-7."""
    name = f"golden-table-{grid}"
    # gamma_Sk is blank in the CSV where the row holds None
    columns = extremal.TABLE_COLUMNS[grid]
    path = golden_dir / f"table_{grid}.csv"
    golden = _read_rows(path)
    rows = extremal.table_by_first_zero() if grid == "u" else extremal.table_by_order()
    if len(golden) != len(rows):
        return CheckResult(name, False, f"{path.name}: {len(golden)} rows, expected {len(rows)}")
    tol = 1e-7
    key = columns[0][0]
    worst = dict.fromkeys((col for col, _ in columns), 0.0)
    for g, row in zip(golden, rows):
        for col, field in columns:
            have = getattr(row, field)
            if have is None and not g[col]:
                continue
            dev = abs(float(g[col]) - have)
            if dev > tol:
                return CheckResult(
                    name, False, f"{path.name} row {key}={g[key]}: column {col} off by {dev:.2e}"
                )
            worst[col] = max(worst[col], dev)
    devs = ", ".join(f"{col} {dev:.1e}" for col, dev in worst.items())
    return CheckResult(name, True, f"{len(rows)} rows within {tol:.0e}; worst dev {devs}")


def _check_cli_deterministic() -> CheckResult:
    from . import cli  # deferred: cli imports this module

    pieces = []
    for _ in range(2):
        pieces.append(
            (
                cli.render_table("u", "csv", 9),
                cli.render_table("k", "csv", 10),
                cli.render_constants(),
            )
        )
    ok = pieces[0] == pieces[1]
    return CheckResult("cli-deterministic", ok, "two in-process renders byte-identical")


# ----------------------------------------------------------------- oracle


def _check_oracle_small() -> CheckResult:
    n_max = 20000
    spec = oracle.random_spec(k=3, y=50.0, N=n_max, seed=12, zero_probability=0.3)
    f = oracle.build_f(spec, n_max)
    violations = oracle.divisor_domination_check(f, 10000)
    slack = oracle.sandwich_check(oracle.build_g(f), n_max)
    worst_sum = 0.0
    for k in (12, 24):
        for l in range(1, k + 1):
            if k % l == 0:
                lhs, rhs = oracle.coprime_power_sum(k, l)
                worst_sum = max(worst_sum, abs(lhs - rhs))
    ok = violations == 0 and slack <= 1e-9 and worst_sum <= 1e-9
    return CheckResult(
        "oracle-identities",
        ok,
        f"domination violations {violations}, sandwich slack {slack:.1e}, "
        f"coprime-sum dev {worst_sum:.1e}",
    )


def _check_oracle_desk() -> CheckResult:
    k, delta, y, N = 2, 1.0, oracle.DESK_Y, oracle.DESK_N
    spec = oracle.construct_tracking_spec(k, delta, y, 1.0, N)
    f = oracle.build_f(spec, N)
    U = extremal.find_U(delta)
    u_values = list(np.arange(1.0, U, 0.05)) + [U]
    rows = oracle.tracking_rows(f, y, delta, u_values)
    worst = max(r.deviation for r in rows)
    report = oracle.mean_values(f, float(N))
    log_gap = abs(report.log_mean - (2.0 - 2.0 / math.sqrt(math.e)))
    bundle = oracle.transforms(f, N, h_max=10)
    ts = np.geomspace(y, N, 200)
    floor = ts * (1.0 - bundle.deficiency.value(ts)) - 0.1 * ts
    margin = float(np.min(bundle.partial_sum.value(ts) - floor))
    ok = worst <= 0.15 and log_gap <= 0.1 and margin >= 0.0 and report.check()
    return CheckResult(
        "oracle-tracking-desk",
        ok,
        f"worst tracking dev {worst:.4f} (tol 0.15), log-mean gap {log_gap:.2e} "
        f"(tol 0.1), min partial-sum margin {margin:.1f}",
    )


# ------------------------------------------------------------------ suite


def run_checks(suite: str = "fast", golden_dir: str | Path | None = None) -> list[CheckResult]:
    """Run the named suite; returns one CheckResult per check."""
    if suite not in ("fast", "full"):
        raise ValueError(f"suite must be 'fast' or 'full', got {suite!r}")
    gdir = Path(golden_dir) if golden_dir is not None else DATA_DIR
    if not gdir.is_dir():
        raise ValueError(f"golden_dir must be an existing directory, got {gdir}")
    checks: list[tuple[str, Callable[[], CheckResult]]] = [
        ("dickman-closed-values", _check_dickman_closed),
        ("dickman-total-integral", _check_dickman_total),
        ("dickman-dde-residual", _check_dickman_residual),
        ("sigma-marched-vs-closed", _check_sigma_closed_vs_marched),
        ("volterra-vs-closed", _check_volterra_vs_closed),
        ("renewal-kernel-mass", _check_kernel_mass),
        ("series-envelope", _check_envelope),
        ("first-zero-round-trip", _check_zero_round_trip),
        ("first-zero-monotone", _check_zero_monotone),
        ("first-zero-branch-seam", _check_zero_branch_seam),
        ("mean-small-drift-limit", _check_mean_small_delta),
        ("renewal-extension", _check_extension),
        ("constants-order-ladder", _check_constants_order),
        ("constants-disc-crossing", _check_constants_disc),
        ("constants-average-bound", _check_constants_average),
        ("deficiency-closed-forms", _check_deficiency_forms),
        ("golden-table-u", lambda: _check_golden(gdir, "u")),
        ("golden-table-k", lambda: _check_golden(gdir, "k")),
        ("cli-deterministic", _check_cli_deterministic),
        ("oracle-identities", _check_oracle_small),
    ]
    if suite == "full":
        checks.append(("oracle-tracking-desk", _check_oracle_desk))
    results = []
    for name, fn in checks:
        try:
            results.append(fn())
        except Exception as exc:  # surface, never crash the report
            results.append(CheckResult(name, False, f"raised {type(exc).__name__}: {exc}"))
    return results
