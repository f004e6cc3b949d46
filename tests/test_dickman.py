"""Smooth-density solver: closed values, the independent quadrature
oracle for rho(3), the Li2 closed form on [2, 3], the 60-digit
recurrence past 3, mass identity, and residual of the defining
equation."""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

from extremal_means.cli import main
from extremal_means.dickman import (
    dde_residual_max,
    default_table,
    rho,
    rho_total_integral,
)
from extremal_means.piecewise import integrate_callable


def rho3_quadrature_oracle() -> float:
    # one step of the defining integral from the exact [1,2] branch:
    # value at 3 = value at 2 minus the average of the shifted branch
    tail = integrate_callable(lambda t: (1.0 - np.log(t - 1.0)) / t, 2.0, 3.0, tol=1e-13)
    return (1.0 - math.log(2.0)) - tail.value


def test_closed_values():
    assert rho(0.0) == 1.0
    assert rho(0.7) == 1.0
    assert rho(1.0) == 1.0
    assert abs(rho(2.0) - (1.0 - math.log(2.0))) < 1e-12
    assert abs(rho(2.0) - 0.3068528194400547) < 1e-12
    assert abs(rho(1.5) - (1.0 - math.log(1.5))) < 1e-12


def test_rho3_against_quadrature_oracle():
    oracle = rho3_quadrature_oracle()
    assert abs(rho(3.0) - oracle) < 1e-9
    assert abs(oracle - 0.0486083883) < 1e-9  # frozen from the oracle


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        rho(-1.0)


def test_non_finite_argument_rejected():
    with pytest.raises(ValueError):
        rho(float("nan"))
    with pytest.raises(ValueError):
        rho(np.array([2.5, np.nan]))
    assert main(["dickman", "--u", "nan"]) == 2


def test_total_integral_is_exp_gamma():
    total = rho_total_integral(20.0)
    assert abs(total - math.exp(np.euler_gamma)) < 1e-6


def test_defining_equation_residual():
    # u*rho'(u) = -rho(u-1) on the table, away from the kink at 1
    assert dde_residual_max(1.5, 10.0) <= 1e-8


def test_vectorized_matches_scalar():
    us = np.array([0.3, 1.0, 1.7, 2.4, 5.0])
    vec = rho(us)
    assert np.allclose(vec, [rho(float(u)) for u in us], atol=1e-15)


def test_decay_is_fast():
    # super-exponential decay: rho(u) < u^{-u} guide for moderate u
    for u in (3.0, 5.0, 8.0):
        assert 0.0 < rho(u) < u**-u * math.e**u


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 35.0))
def test_bounds_and_monotone(u):
    v = rho(u)
    assert 0.0 < v <= 1.0
    if u >= 1.0:
        assert rho(u + 0.25) <= v + 1e-15


def test_coefficient_table_cached_read_only_and_continuous():
    table = default_table()
    assert default_table() is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[3, 0] = 0.0
    for k in range(3, 40):
        left = polyval(0.5, table[k - 1])  # the unit below at z = +1/2
        right = polyval(-0.5, table[k])
        assert abs(left - right) <= 1e-14 * right, k


def recurrence_60_digits(units: int = 40, terms: int = 40) -> list[list]:
    """The per-unit coefficients of rho in 60-digit mpmath, by the same
    recurrence and integral rule as dickman.default_table."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        half = [mpmath.mpf(1) / 2 ** (n + 1) / (n + 1) for n in range(terms)]
        prev = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (terms - 1)
        rows = [prev]
        for k in range(1, units):
            c = mpmath.mpf(k) + mpmath.mpf(1) / 2
            a = [mpmath.mpf(0)] * terms
            for n in range(terms - 1):
                a[n + 1] = -(prev[n] + n * a[n]) / (c * (n + 1))
            total = sum(b * w for b, w in zip(prev, half))
            total += sum((-1) ** n * a[n] * half[n] for n in range(1, terms))
            a[0] = total / k
            rows.append(a)
            prev = a
    return rows


def test_series_matches_the_li2_closed_form_on_2_3():
    # rho(u) = 1 - (1 - log(u-1)) log u + Li2(1-u) + pi^2/12 on [2, 3]
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for u in np.linspace(2.0, 3.0, 101):
            x = mpmath.mpf(float(u))
            exact = (
                1 - (1 - mpmath.log(x - 1)) * mpmath.log(x)
                + mpmath.polylog(2, 1 - x)
                + mpmath.pi**2 / 12
            )
            assert abs(rho(float(u)) - exact) <= 1e-15 * exact, u


def test_series_matches_the_60_digit_recurrence_past_3():
    mpmath = pytest.importorskip("mpmath")
    rows = recurrence_60_digits()
    us = np.concatenate([np.linspace(3.0, 40.0, 741)[1:], [3.0 + 1e-9, 17.5, 39.999]])
    with mpmath.workdps(60):
        for u in us:
            k = math.ceil(u) - 1
            z = mpmath.mpf(float(u)) - (k + mpmath.mpf(1) / 2)
            exact = mpmath.polyval(rows[k][::-1], z)
            assert abs(rho(float(u)) - exact) <= 1e-13 * exact, u


def test_total_integral_is_exp_gamma_to_rounding():
    assert abs(rho_total_integral(20.0) - math.exp(np.euler_gamma)) <= 1e-12


def test_total_integral_matches_the_60_digit_polynomials():
    # 1 on [0, 1] and 1 - log u on [1, 2] integrate to 3 - 2 log 2; past 2
    # each unit's 60-digit polynomial is integrated exactly
    mpmath = pytest.importorskip("mpmath")
    rows = recurrence_60_digits()
    with mpmath.workdps(60):
        half = mpmath.mpf(1) / 2
        for cut in (2.5, 3.7, 8.25, 17.5, 39.999, 40.0):
            exact = 3 - 2 * mpmath.log(2)
            for k in range(2, math.ceil(cut)):
                top = min(mpmath.mpf(cut) - (k + half), half)
                exact += sum(
                    a * (top ** (n + 1) - (-half) ** (n + 1)) / (n + 1)
                    for n, a in enumerate(rows[k])
                )
            assert abs(rho_total_integral(cut) - exact) <= 1e-15, cut


def test_positive_and_strictly_decreasing_past_2():
    v = rho(np.linspace(2.0, 40.0, 38_001)[1:])
    assert np.all(v > 0.0)
    assert np.all(np.diff(v) < 0.0)


def test_scalar_is_the_array_path_bit_for_bit():
    rng = np.random.default_rng(3)
    us = np.concatenate([np.linspace(0.0, 40.0, 401), rng.uniform(2.0, 40.0, 100)])
    arr = rho(us)
    assert [rho(float(u)) for u in us] == arr.tolist()
    assert type(rho(np.float64(7.3))) is float


def test_importing_the_cli_builds_no_table():
    code = (
        "import extremal_means.cli\n"
        "from extremal_means import dickman\n"
        "print(dickman.default_table.cache_info().currsize)"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "0"
