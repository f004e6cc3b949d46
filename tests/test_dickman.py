"""Smooth-density solver: closed values, the independent quadrature
oracle for rho(3), mass identity, and residual of the defining
equation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal_means.cli import main
from extremal_means.dickman import (
    dde_residual_max,
    default_table,
    rho,
    rho_inverse,
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


def test_inverse_round_trip():
    for u in (1.5, 2.0, 3.0, 5.0, 8.0):
        x = rho(u)
        assert abs(rho_inverse(x) - u) < 1e-6


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 35.0))
def test_bounds_and_monotone(u):
    v = rho(u)
    assert 0.0 < v <= 1.0
    if u >= 1.0:
        assert rho(u + 0.25) <= v + 1e-15


def test_default_table_cached_and_consistent():
    t1 = default_table()
    t2 = default_table()
    assert t1 is t2
    # table node value equals rho at an interior node
    assert abs(t1.value_cubic(2.0) - rho(2.0)) < 1e-12
