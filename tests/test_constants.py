"""Closed-form constants, branch seams, and the small optimizers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal_means.constants import (
    ORDER_LIMIT_VALUE,
    average_bound_objective,
    deficiency_bound,
    extremize_order4,
    order3_profile_average,
    order4_bound,
    order_constant,
    optimize_average_bound,
    unit_disc_bounds,
)

LOG2 = math.log(2.0)

# the crossing's closed form, written out apart from constants.py
A_STAR_CLOSED = 2.0 * math.log(2.0 * (math.sqrt(math.e) - 1.0))


def test_order2_and_order3_closed_values():
    c2 = order_constant(2)
    assert c2.value == 2.0 - 2.0 / math.sqrt(math.e)
    assert abs(c2.value - 0.7869386805747332) < 1e-15
    assert c2.argmin_or_max is None
    c3 = order_constant(3)
    assert c3.value == 4.0 / 3.0 - math.exp(-2.0 / 3.0)
    assert abs(c3.value - 0.8199162143007412) < 1e-15


def test_order4_extremum_location_and_value():
    res = extremize_order4()
    assert res.k == 4
    assert abs(res.value - 0.8296539745260567) < 1e-12
    # the closed form really is an interior max of the slice: nothing on
    # a fine grid of [0, 1] beats it, and the slope vanishes there
    slice_fn = lambda A: order4_bound(A, 0.5 * (1.0 - A))
    assert res.value >= slice_fn(0.0) and res.value >= slice_fn(1.0)
    assert all(slice_fn(float(A)) <= res.value for A in np.linspace(0.0, 1.0, 100_001))
    eps = 1e-6
    A0 = res.argmin_or_max
    assert abs(slice_fn(A0 + eps) - slice_fn(A0 - eps)) / (2.0 * eps) <= 1e-8
    assert res.value == order4_bound(res.argmin_or_max, 0.5 * (1.0 - res.argmin_or_max))


def test_order4_branch_seams_are_continuous():
    eps = 1e-9
    # seam A + B = log 2, crossed in A
    A, B = LOG2 - 0.2, 0.2
    assert abs(order4_bound(A + eps, B) - order4_bound(A - eps, B)) < 1e-7
    # seam B = log 2, crossed in B
    A = 0.1
    assert abs(order4_bound(A, LOG2 + eps) - order4_bound(A, LOG2 - eps)) < 1e-7


@given(
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0),
    st.floats(1e-6, 0.5),
)
@settings(max_examples=60, deadline=None)
def test_order4_nonincreasing_in_both_arguments(A, B, step):
    base = order4_bound(A, B)
    assert order4_bound(A + step, B) <= base + 1e-12
    assert order4_bound(A, B + step) <= base + 1e-12


def test_order4_rejects_negative_arguments():
    with pytest.raises(ValueError):
        order4_bound(-0.1, 0.2)
    with pytest.raises(ValueError):
        order4_bound(0.2, -0.1)


def test_order_constant_dispatch_and_validation():
    assert order_constant(7).value == ORDER_LIMIT_VALUE
    assert order_constant(40).value == ORDER_LIMIT_VALUE
    inf_const = order_constant(math.inf)
    assert inf_const.value == ORDER_LIMIT_VALUE and inf_const.k == math.inf
    assert ORDER_LIMIT_VALUE == 34.0 / 35.0
    with pytest.raises(ValueError):
        order_constant(4.5)
    with pytest.raises(ValueError):
        order_constant(1)


@pytest.mark.parametrize("u", [math.exp(2.0), math.exp(4.0), 50.0])
def test_order3_average_matches_closed_constant(u):
    # log-scaled average of the explicit profile is u-independent and
    # reproduces the closed order-3 constant
    assert abs(order3_profile_average(u) - order_constant(3).value) < 1e-12


def test_order3_average_rejects_small_u():
    with pytest.raises(ValueError):
        order3_profile_average(1.0)


def test_unit_disc_crossing():
    res = unit_disc_bounds()
    assert abs(res.A_star - A_STAR_CLOSED) < 1e-12
    assert abs(res.A_star - 0.5207901019855132) < 1e-12
    expect_B = res.A_star - 2.0 + 2.0 * math.exp(-0.5 * res.A_star)
    assert abs(res.B_star - expect_B) < 1e-15
    assert abs(res.B_star - 0.06228418452231166) < 1e-11
    # crossing means the falling bound agrees there too
    falling = 2.0 * math.exp(0.5 * (1.0 - res.A_star)) + res.A_star - 3.0
    assert abs(res.B_star - falling) < 1e-12
    assert res.check_34_35
    assert 1.0 - 33.0 * res.B_star / 70.0 <= ORDER_LIMIT_VALUE


def test_average_bound_optimizer():
    res = optimize_average_bound()
    # stationary point solves e^{-c} = c
    assert abs(math.exp(-res.c_star) - res.c_star) < 1e-12
    assert abs(res.c_star - 0.5671432904097837) < 1e-12
    assert abs(res.K - 2.8660901984124547) < 1e-12
    assert 2.8656 < res.K < 43.0 / 15.0
    # minimality against nearby competitors
    for c in (res.c_star - 0.05, res.c_star + 0.05):
        assert average_bound_objective(c) > average_bound_objective(res.c_star)


def test_average_bound_objective_validation():
    with pytest.raises(ValueError):
        average_bound_objective(0.0)
    with pytest.raises(ValueError):
        average_bound_objective(-1.0)


def test_deficiency_bound_variants():
    assert deficiency_bound(1.0, "first") == 0.5
    assert deficiency_bound(0.0, "first") == 1.0
    # refined bound at full deficiency reproduces the order-2 constant
    assert abs(deficiency_bound(1.0, "final") - (2.0 - 2.0 / math.sqrt(math.e))) < 1e-15
    assert abs(deficiency_bound(2.0 / 3.0, "final") - 0.9002707121857549) < 1e-15
    assert deficiency_bound(0.0, "final") == 1.0
    with pytest.raises(ValueError):
        deficiency_bound(1.5, "final")
    with pytest.raises(ValueError):
        deficiency_bound(-0.1, "first")
    with pytest.raises(ValueError):
        deficiency_bound(0.5, "sharpest")
