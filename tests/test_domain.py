"""Entry points reject non-finite, off-grid and oversized input with a
ValueError that names the argument, before anything is allocated."""

from __future__ import annotations

import math

import numpy as np
import pytest

from extremal_means.chi_renewal import extend_chi, verify_sigma_vanishes
from extremal_means.cli import main
from extremal_means.constants import (
    average_bound_objective,
    order3_profile_average,
    order4_bound,
    order_constant,
)
from extremal_means.dickman import dde_residual_max, rho, rho_total_integral
from extremal_means.extremal import chi_delta, compute_I, delta_for_U, gamma_odd_order, mean_grid
from extremal_means.grid import SolutionGrid
from extremal_means.oracle import (
    MultiplicativeSpec,
    StepProfile,
    build_f,
    construct_tracking_spec,
    coprime_power_sum,
    divisor_correlation,
    divisor_domination_check,
    mobius,
    random_spec,
    sandwich_check,
    totient,
    tracking_rows,
    transforms,
)
from extremal_means.piecewise import ConstantSegment, PiecewiseFunction, integrate_callable
from extremal_means.sigma import (
    closed_tail_dilog,
    closed_tail_integral,
    series_first_term,
    sigma_closed,
    sigma_dde,
    solve_volterra,
)

STEP_USERS = {
    "SolutionGrid": lambda h: SolutionGrid(h=h, values=np.ones(3)),
    "sigma_dde": lambda h: sigma_dde(0.2, 3.0, h=h),
    "solve_volterra": lambda h: solve_volterra(chi_delta(0.3), 3.0, h=h),
    "extend_chi": lambda h: extend_chi(0.3, h=h),
}


@pytest.mark.parametrize("user", sorted(STEP_USERS))
@pytest.mark.parametrize(
    "h, message",
    [
        (math.nan, "h must be a finite positive step, got nan"),
        (math.inf, "h must be a finite positive step, got inf"),
        (0.0, "h must be a finite positive step, got 0.0"),
        (-1e-3, "h must be a finite positive step"),
        (3e-4, "h must divide 1 exactly, got 0.0003"),
        (1e-8, "nodes, more than 2000000"),
    ],
)
def test_one_step_validator(user, h, message):
    with pytest.raises(ValueError, match=message):
        STEP_USERS[user](h)


def test_node_cap_covers_the_span():
    with pytest.raises(ValueError, match="more than 2000000"):
        sigma_dde(0.2, 1e6)
    with pytest.raises(ValueError, match="more than 2000000"):
        extend_chi(0.5, t_max=1e9)
    with pytest.raises(ValueError, match="at least 10 steps"):
        extend_chi(0.5, h=0.2)


def tracking_cutoff(u):
    return tracking_rows(np.ones(1001), 10.0, 0.2, [1.0, u])


def tracking_base(y):
    return tracking_rows(np.ones(1001), y, 0.2, [1.0])


UNIT_F = np.ones(101, dtype=complex)
UNIT_STEPS = StepProfile(points=np.array([2.0, 3.0]), cum=np.array([1.0, 2.0]))


def small_spec(k=3, y=1.0, primes=(11,), assignment=(1,), N=100):
    return MultiplicativeSpec(k=k, y=y, primes=np.array(primes), assignment=assignment, N=N)


def build_small_f(N):
    return build_f(random_spec(3, 10.0, 1000, seed=1), N)


STEPS = (ConstantSegment(1.0), ConstantSegment(-0.3))


def profile_breaking_at(b):
    return PiecewiseFunction((0.0, b), STEPS)


def profile_ending_at(end):
    return PiecewiseFunction((0.0, 1.0), STEPS, domain_end=end)

# arguments for which +inf is as invalid as nan and -inf
BOTH_INFINITIES = [
    pytest.param("A", lambda x: order4_bound(x, 0.1), id="A-order4_bound"),
    pytest.param("B", lambda x: order4_bound(0.1, x), id="B-order4_bound"),
    pytest.param("u", order3_profile_average, id="u-order3_profile_average"),
    pytest.param("c", average_bound_objective, id="c-average_bound_objective"),
    pytest.param("lo", lambda x: dde_residual_max(x, 10.0), id="lo-dde_residual_max"),
    pytest.param("hi", lambda x: dde_residual_max(1.5, x), id="hi-dde_residual_max"),
    pytest.param("U", lambda x: mean_grid(0.3, x), id="U-mean_grid"),
    pytest.param("a", lambda x: integrate_callable(np.exp, x, 1.0), id="a-integrate_callable"),
    pytest.param("b", lambda x: integrate_callable(np.exp, 0.0, x), id="b-integrate_callable"),
    pytest.param("u", closed_tail_integral, id="u-closed_tail_integral"),
    pytest.param("u", closed_tail_dilog, id="u-closed_tail_dilog"),
    pytest.param("u", series_first_term, id="u-series_first_term"),
    pytest.param(
        "tol", lambda x: integrate_callable(np.sin, 0.0, 1.0, tol=x), id="tol-integrate_callable"
    ),
    pytest.param("u", rho, id="u-rho"),
    pytest.param("delta", lambda x: sigma_closed(x, 2.5), id="delta-sigma_closed"),
    pytest.param("u", lambda x: sigma_closed(0.2, x), id="u-sigma_closed"),
    pytest.param("delta", lambda x: sigma_dde(x, 3.0), id="delta-sigma_dde"),
    pytest.param("u_max", lambda x: sigma_dde(0.2, x), id="u_max-sigma_dde"),
    pytest.param("u_max", lambda x: solve_volterra(chi_delta(0.3), x), id="u_max-solve_volterra"),
    pytest.param(
        "u_max",
        lambda x: verify_sigma_vanishes(extend_chi(0.2), x),
        id="u_max-verify_sigma_vanishes",
    ),
    pytest.param("breakpoints", profile_breaking_at, id="breakpoints-PiecewiseFunction"),
    pytest.param("u", lambda x: UNIT_STEPS.value(x), id="u-StepProfile.value"),
    pytest.param("n_max", lambda x: divisor_correlation(UNIT_F, x), id="n_max-divisor_correlation"),
    pytest.param(
        "n_max", lambda x: divisor_domination_check(UNIT_F, x), id="n_max-divisor_domination_check"
    ),
    pytest.param("n_max", lambda x: sandwich_check(np.ones(101), x), id="n_max-sandwich_check"),
    pytest.param("order k", lambda x: random_spec(x, 10.0, 100, seed=0), id="k-random_spec"),
    pytest.param("order k", lambda x: small_spec(k=x), id="k-MultiplicativeSpec"),
    pytest.param(
        "order k",
        lambda x: construct_tracking_spec(x, 0.5, 1e2, 1.0, 10**5),
        id="k-construct_tracking_spec",
    ),
    pytest.param(
        "zero_probability",
        lambda x: random_spec(3, 10.0, 100, seed=0, zero_probability=x),
        id="zero_probability-random_spec",
    ),
    pytest.param("y", lambda x: random_spec(3, x, 100, seed=0), id="y-random_spec"),
    pytest.param("y", lambda x: small_spec(y=x), id="y-MultiplicativeSpec"),
    pytest.param("N", lambda x: small_spec(N=x), id="N-MultiplicativeSpec"),
    pytest.param("N", build_small_f, id="N-build_f"),
    pytest.param(
        "N", lambda x: construct_tracking_spec(2, 1.0, 1e2, 1.0, x), id="N-construct_tracking_spec"
    ),
    pytest.param("n", mobius, id="n-mobius"),
    pytest.param("n", totient, id="n-totient"),
    pytest.param("k", lambda x: coprime_power_sum(x, 1), id="k-coprime_power_sum"),
    pytest.param("l", lambda x: coprime_power_sum(12, x), id="l-coprime_power_sum"),
]


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
@pytest.mark.parametrize(
    "name, call",
    [
        ("u_cut", rho_total_integral),
        ("t_max", lambda x: extend_chi(0.2, t_max=x)),
        ("domain_end", profile_ending_at),
        ("order k", order_constant),
        ("U", lambda x: compute_I(0.2, U=x)),
        ("u", tracking_cutoff),
        ("y", tracking_base),
    ]
    + BOTH_INFINITIES,
)
def test_non_finite_argument_named(name, call, bad):
    with pytest.raises(ValueError, match=rf"^{name} must .*got {bad}$"):
        call(bad)


@pytest.mark.parametrize("name, call", BOTH_INFINITIES)
def test_positive_infinity_named(name, call):
    with pytest.raises(ValueError, match=rf"^{name} must .*got inf$"):
        call(math.inf)


@pytest.mark.parametrize(
    "lo, hi, message",
    [
        (5.0, 4.0, r"^hi must be finite and > lo = 5.0, got 4.0$"),
        (2.0, 2.00005, r"^\[2.0, 2.00005\] holds no table node past u = 1 other than u = 2$"),
        (50.0, 60.0, r"^\[50.0, 60.0\] holds no table node"),
    ],
)
def test_dde_residual_needs_a_node_to_check(lo, hi, message):
    with pytest.raises(ValueError, match=message):
        dde_residual_max(lo, hi)


@pytest.mark.parametrize(
    "call, bad, message",
    [
        (tracking_cutoff, 0.0, "u must be finite and positive"),
        (tracking_base, 0.5, "y must be finite and > 1"),
        (tracking_base, 1.0, "y must be finite and > 1"),
    ],
)
def test_tracking_rows_checks_y_and_cutoffs(call, bad, message):
    # at the cutoff u = 0 (x = 1) the log mean divides by log 1, and below
    # y = 1 every cutoff is the empty sum
    with pytest.raises(ValueError, match=rf"^{message}, got {bad}$"):
        call(bad)


@pytest.mark.parametrize("u", [1.0001, 1.2, math.exp(0.5) - 1e-12])
def test_delta_for_U_rejects_zeros_below_sqrt_e(u):
    # every drift in (0, 1] has its first zero at or above U(1) = sqrt(e)
    with pytest.raises(ValueError, match=rf"^u must lie in \[sqrt\(e\), 12.0\], got {u}$"):
        delta_for_U(u)
    assert delta_for_U(math.exp(0.5)) == 1.0


def test_value_cubic_stays_on_its_grid():
    grid = sigma_dde(0.2, 5.0)
    for bad in (math.nan, math.inf, -math.inf, 7.0, 5.0 + 1e-9, -0.5):
        with pytest.raises(ValueError, match=rf"^u must .*\[0, 5.0\], got {bad}$"):
            grid.value_cubic(bad)
    with pytest.raises(ValueError, match="got 7.0$"):
        grid.value_cubic(np.array([1.0, 7.0, math.nan]))
    # the ends, within rounding, and an empty array stay accepted
    assert grid.value_cubic(5.0 + 1e-13) == grid.value_cubic(5.0)
    assert grid.value_cubic(-1e-13) == 1.0
    assert grid.value_cubic(np.array([])).shape == (0,)
    # the array path checks the same range with the same message
    for bad in (math.nan, math.inf, -math.inf, 7.0, 5.0 + 1e-9, -0.5):
        with pytest.raises(ValueError, match=rf"^u must .*\[0, 5.0\], got {bad}$"):
            grid.value_cubic(np.array([bad]))
    assert grid.value_cubic(np.array([5.0 + 1e-13, -1e-13])).tolist() == [
        grid.value_cubic(5.0),
        1.0,
    ]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.0 + 1e-5, -1.0 - 1e-5])
def test_solution_grid_rejects_values_off_the_unit_band(bad):
    values = np.ones(31)
    values[25] = bad
    with pytest.raises(ValueError, match="^solution escaped the unit band$"):
        SolutionGrid(h=0.1, values=values)
    # the band edge itself stays accepted
    values[25] = -1.0 - 1e-6
    assert SolutionGrid(h=0.1, values=values).values[25] == -1.0 - 1e-6


@pytest.mark.parametrize("bad", [3.5, math.inf, math.nan])
def test_gamma_odd_order_takes_odd_integers_only(bad):
    with pytest.raises(ValueError, match=rf"^k must be an odd integer and at least 3, got {bad}$"):
        gamma_odd_order(bad)
    # integer-valued floats stay accepted, as order_constant takes them
    assert gamma_odd_order(5.0) == gamma_odd_order(5)


@pytest.mark.parametrize(
    "y, A, message",
    [
        (-1.0, 1.0, r"^y must be finite and > 1, got -1.0$"),
        (math.nan, 1.0, r"^y must be finite and > 1, got nan$"),
        (1e-9, 1.0, r"^y must be finite and > 1, got 1e-09$"),
        (10.0, math.nan, r"^A must be finite and positive, got nan$"),
        (10.0, math.inf, r"^A must be finite and positive, got inf$"),
        (1e300, 1.0, r"^y\^\(A U\) overflows a float for y = 1e\+300, A = 1.0$"),
        (10.0, 1e12, r"^y\^\(A U\) overflows a float for y = 10.0, A = 1000000000000.0$"),
        (10.0, 1e-9, r"^A = 1e-09 leaves no prime in \(y, y\^\(A U\)\]"),
    ],
)
def test_tracking_spec_checks_y_and_A(y, A, message):
    with pytest.raises(ValueError, match=message):
        construct_tracking_spec(2, 1.0, y, A, 1000)


SIEVE_LAB_REJECTS = {
    # build_angles adds two indices below k for an int16 array: 2^14 keeps sums below 2^15
    "k-above-cap": (lambda: random_spec(20000, 1.0, 10**5, 1), r"^order k .*16384\], got 20000$"),
    "k-past-int16": (lambda: random_spec(40000, 1.0, 10**5, 1), r"^order k .*got 40000$"),
    "k-fraction-spec": (lambda: small_spec(k=2.5), r"^order k must be an integer .*got 2.5$"),
    "k-fraction-tracking": (
        lambda: construct_tracking_spec(2.5, 0.5, 1e2, 1.0, 10**5),
        r"^order k .*got 2.5$",
    ),
    "index-above-k": (lambda: small_spec(assignment=(4,)), r"^angle indices .*\[0, 3\]"),
    "index-float": (lambda: small_spec(assignment=(1.0,)), r"^angle indices must be integers"),
    "index-count": (lambda: small_spec(assignment=(1, 2)), r"^need one angle index per prime"),
    "prime-above-N": (lambda: small_spec(primes=(101,)), r"^primes must .*in \(1.0, 100\]$"),
    "prime-at-y": (lambda: small_spec(y=11.0), r"^primes must .*in \(11.0, 100\]$"),
    "prime-one": (lambda: small_spec(y=-5.0, primes=(1,)), r"^primes must .*in \(1.0, 100\]$"),
    "primes-descend": (
        lambda: small_spec(primes=(13, 11), assignment=(1, 1)),
        r"^primes must .*increase",
    ),
    "primes-float": (lambda: small_spec(primes=(11.0,)), r"^primes must be integers"),
    "N-fraction": (lambda: small_spec(N=100.5), r"^N must be an integer .*got 100.5$"),
    "entry-composite": (
        lambda: build_f(small_spec(primes=(4,)), 100),
        r"^spec entry 4 is not a prime$",
    ),
    "N-past-spec": (
        lambda: build_f(small_spec(N=1000), 2000),
        r"^N must be an integer in \[2, 1000\], got 2000$",
    ),
    "N-negative": (lambda: build_small_f(-5), r"^N must be an integer in \[2, 1000\], got -5$"),
    "zero-probability-above-1": (
        lambda: random_spec(3, 10.0, 100, 0, zero_probability=2.0),
        r"^zero_probability must lie in \[0, 1\], got 2.0$",
    ),
    "transforms-N-fraction": (
        lambda: transforms(UNIT_F, 100.5),
        r"^N must be an integer in \[2, 100\], got 100.5$",
    ),
    "transforms-N-nan": (
        lambda: transforms(UNIT_F, math.nan),
        r"^N must be an integer in \[2, 100\], got nan$",
    ),
    "transforms-h_max-fraction": (
        lambda: transforms(UNIT_F, 100, h_max=2.5),
        r"^h_max must be an integer in \[1, inf\], got 2.5$",
    ),
    "correlation-n_max-fraction": (
        lambda: divisor_correlation(UNIT_F, 10.7),
        r"^n_max must be an integer in \[1, inf\], got 10.7$",
    ),
    "domination-n_max-fraction": (
        lambda: divisor_domination_check(UNIT_F, 100.5),
        r"^n_max must be an integer in \[1, inf\], got 100.5$",
    ),
    "sandwich-n_max-fraction": (
        lambda: sandwich_check(np.ones(101), 100.5),
        r"^n_max must be an integer in \[1, inf\], got 100.5$",
    ),
    "tracking-rows-overflow": (
        lambda: tracking_rows(UNIT_F, 1e300, 1.0, [5.0]),
        r"^y\^u overflows a float for y = 1e\+300, u = 5.0$",
    ),
    "domination-n_max-one": (
        lambda: divisor_domination_check(UNIT_F, 1),
        r"^n_max must be at least 2 in the f range 100, got 1$",
    ),
    "sandwich-n_max-past-short-g": (
        lambda: sandwich_check(np.ones(2), 50),
        r"^n_max must be at least 2 in the f range 1, got 50$",
    ),
    "mobius-fraction": (lambda: mobius(2.5), r"^n must be an integer in \[1, 20000000\], got 2.5$"),
    "totient-fraction": (
        lambda: totient(2.5),
        r"^n must be an integer in \[1, 20000000\], got 2.5$",
    ),
    # trial division past the sieve cap would run about sqrt(n) steps
    "mobius-above-cap": (
        lambda: mobius(2**61 - 1),
        r"^n must be an integer in \[1, 20000000\], got 2305843009213693951$",
    ),
    # an int past the float range fails the range test, not a float conversion
    "mobius-huge-int": (
        lambda: mobius(10**400),
        r"^n must be an integer in \[1, 20000000\], got 1000",
    ),
    "N-huge-int-tracking": (
        lambda: construct_tracking_spec(2, 1.0, 1e2, 1.0, 10**400),
        r"^N must be an integer in \[2, 20000000\], got 1000",
    ),
    "totient-above-cap": (lambda: totient(20_000_001), r"^n must .*got 20000001$"),
    "coprime-k-above-cap": (
        lambda: coprime_power_sum(2**20, 1),
        r"^k must be an integer in \[1, 16384\], got 1048576$",
    ),
    "coprime-l-fraction": (
        lambda: coprime_power_sum(12, 1.5),
        r"^l must be an integer in \[1, 12\], got 1.5$",
    ),
    "coprime-l-above-k": (
        lambda: coprime_power_sum(6, 12),
        r"^l must be an integer in \[1, 6\], got 12$",
    ),
    "coprime-l-not-divisor": (lambda: coprime_power_sum(6, 4), r"^need l \| k, got k=6, l=4$"),
}


@pytest.mark.parametrize("case", sorted(SIEVE_LAB_REJECTS))
def test_sieve_lab_rejects_bad_input(case):
    call, message = SIEVE_LAB_REJECTS[case]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("flag, name", [("--n", "N"), ("--k", "order k")])
def test_oracle_command_rejects_a_huge_integer(flag, name, capsys):
    code = main(["oracle", flag, str(10**400)])
    cap = capsys.readouterr()
    assert code == 2 and cap.out == ""
    assert cap.err.startswith(f"error: {name} must be an integer in ")


SHORT_PROFILE = profile_ending_at(2.0)
GUARDS_NAME_THEIR_VALUE = {
    "rho-negative": (lambda: rho(-1.0), r"^u must be finite and lie in \[0, 40.0\], got -1.0$"),
    "rho-past-table": (lambda: rho(np.array([3.0, 41.0])), r"^u must .*, got 41.0$"),
    # T1(u) reads rho on [0, u - 1], so its range ends one unit past rho's
    "series_first_term-past-table": (
        lambda: series_first_term(41.5),
        r"^u must be finite and lie in \[0, 41.0\], got 41.5$",
    ),
    "sigma_closed-delta": (
        lambda: sigma_closed(1.5, 2.0),
        r"^delta must lie in \[0, 1\], got 1.5$",
    ),
    "sigma_closed-u": (lambda: sigma_closed(0.2, 3.5), r"^u must lie in \[0, 3\], .*got 3.5$"),
    "sigma_dde-delta": (lambda: sigma_dde(-0.1, 3.0), r"^delta must lie in \[0, 1\], got -0.1$"),
    "sigma_dde-u_max": (lambda: sigma_dde(0.2, 1.5), r"^u_max must be finite and >= 2, got 1.5$"),
    "solve_volterra-u_max": (
        lambda: solve_volterra(chi_delta(0.3), 0.5),
        r"^u_max must be finite and >= 1, got 0.5$",
    ),
    "solve_volterra-h": (
        lambda: solve_volterra(chi_delta(0.3), 3.0, h=2e-3),
        r"^h must be at most 1e-3, got 0.002$",
    ),
    "solve_volterra-domain": (
        lambda: solve_volterra(SHORT_PROFILE, 3.0),
        r"^u_max must be at most chi's domain end 2.0, got 3.0$",
    ),
    # a NaN value fails the range test as it would fail its bound
    "solve_volterra-nan-chi": (
        lambda: solve_volterra(
            PiecewiseFunction((0.0, 1.0), (ConstantSegment(1.0), ConstantSegment(math.nan))),
            3.0,
            h=1e-3,
        ),
        r"^chi must stay in \[-1, 1\]$",
    ),
    "integrate_callable-tol": (
        lambda: integrate_callable(np.sin, 0.0, 1.0, tol=-1.0),
        r"^tol must be finite and >= 0, got -1.0$",
    ),
    "compute_I-delta": (lambda: compute_I(0.0, 2.0), r"^delta must lie in \(0, 1\], got 0.0$"),
}


@pytest.mark.parametrize("case", sorted(GUARDS_NAME_THEIR_VALUE))
def test_guard_names_its_value(case):
    call, message = GUARDS_NAME_THEIR_VALUE[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_vanishing_check_stays_in_the_extension():
    ext = extend_chi(0.2)
    for bad in (ext.U, 1.0, ext.t_max + 1e-6):
        with pytest.raises(ValueError, match=rf"^u_max must lie in \(U, t_max\] .*got {bad}$"):
            verify_sigma_vanishes(ext, bad)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_quadrature_rejects_a_bad_tolerance_before_evaluating(tol):
    calls = []

    def fn(t):
        calls.append(len(t))
        return np.sin(t)

    with pytest.raises(ValueError, match=rf"^tol must be finite and >= 0, got {tol}$"):
        integrate_callable(fn, 0.0, 1.0, tol=tol)
    assert calls == []


def test_series_first_term_reaches_one_unit_past_the_rho_table():
    # the integrand reads rho(u - t) for t >= 1 only, inside rho's table
    assert series_first_term(40.5) == 0.04510515405252534
    assert series_first_term(41.0) == 0.0445409752546629
