"""Mean-preserving profile extension past the first zero.

The marched extension is checked against a from-scratch midpoint
quadrature of the renewal identity at one off-grid point, plus the
structural requirements: range, continuity, kernel mass, and the
vanishing of the induced mean beyond the zero.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from extremal_means.chi_renewal import extend_chi, kernel_mass, verify_sigma_vanishes
from extremal_means.extremal import find_U
from extremal_means.sigma import sigma_closed_band, sigma_dde

THREE_DELTAS = (0.1, 0.2, 0.44)


def brute_renewal_value(delta: float, t: float, panels: int = 200_000) -> float:
    """chi(t) = int_1^U (1+delta)*sigma(v-1)/v * chi(t-v) dv, valid for
    U < t < min(U+1, 2) + 1 where every chi(t-v) is still the known
    window; midpoint panels split at v = t-1 where the window jumps."""
    U = find_U(delta)
    assert U < t < U + 1.0 and t - 1.0 > 1.0

    def piece(lo: float, hi: float, window_value: float) -> float:
        v = lo + (np.arange(panels) + 0.5) * (hi - lo) / panels
        kern = (1.0 + delta) * sigma_closed_band(delta, v - 1.0) / v
        return window_value * float(np.sum(kern)) * (hi - lo) / panels

    return piece(1.0, t - 1.0, -delta) + piece(t - 1.0, U, 1.0)


def test_extension_matches_brute_renewal_quadrature():
    delta = 0.2
    U = find_U(delta)
    t = U + 0.01
    brute = brute_renewal_value(delta, t)
    assert abs(brute - 0.5230729460873379) < 1e-9  # frozen at these panels
    ext = extend_chi(delta)
    assert abs(ext.value(t) - brute) < 1e-8


def test_first_extension_value_closed_form():
    # chi(U+) = (1+delta)*sigma(U-1) - sigma(U) - delta with sigma the
    # window solution (sigma(U) = 0 by definition of U)
    delta = 0.2
    U = find_U(delta)
    expect = (1.0 + delta) * float(sigma_closed_band(delta, np.array([U - 1.0]))[0]) - delta
    ext = extend_chi(delta)
    assert abs(ext.samples[0] - expect) < 1e-9
    assert abs(ext.samples[0] - 0.5334503419085725) < 1e-9  # frozen


def test_kernel_has_unit_mass():
    for delta in THREE_DELTAS:
        assert abs(kernel_mass(delta) - 1.0) < 1e-8


@pytest.mark.parametrize("delta", THREE_DELTAS)
def test_extension_range_continuity_and_vanishing(delta):
    ext = extend_chi(delta)
    U = ext.U
    assert abs(U - find_U(delta)) < 1e-12
    # range [-delta, 1] up to rounding
    assert float(np.min(ext.samples)) >= -delta - 1e-12
    assert float(np.max(ext.samples)) <= 1.0 + 1e-12
    # continuity beyond the seam: consecutive grid steps stay O(h)
    assert float(np.max(np.abs(np.diff(ext.samples)))) <= 10.0 * ext.h
    # induced mean vanishes identically past U
    assert verify_sigma_vanishes(ext, 3.0 * U) <= 1e-6


def test_control_without_extension_goes_negative():
    # the plain window profile drives the mean below zero past U
    delta = 0.2
    sol = sigma_dde(delta, 3.0, richardson=True)
    U = find_U(delta)
    assert sol.value_cubic(U + 0.5) < -1e-3


def test_value_regions_and_domain():
    delta = 0.2
    ext = extend_chi(delta)
    assert ext.value(0.5) == 1.0
    assert ext.value(1.0) == -delta
    assert ext.value(ext.U) == -delta  # window is closed on the right
    assert ext.value(ext.U + ext.h) != -delta
    with pytest.raises(ValueError):
        ext.value(-0.1)
    with pytest.raises(ValueError):
        ext.value(ext.t_max + 1.0)
    vec = ext.value(np.array([0.5, 1.5, ext.U + 0.5]))
    assert vec.shape == (3,)


def test_default_horizon_and_validation():
    ext = extend_chi(0.3)
    assert abs(ext.t_max - 4.0 * ext.U) < 2e-4  # rounded to the grid
    with pytest.raises(ValueError):
        extend_chi(0.0)
    with pytest.raises(ValueError):
        extend_chi(1.2)
    with pytest.raises(ValueError):
        extend_chi(0.3, h=3e-4)  # step must divide the unit delay


def test_extension_independent_of_horizon():
    # marching further must not change earlier values
    delta = 0.25
    short = extend_chi(delta, t_max=2.5 * find_U(delta))
    longer = extend_chi(delta, t_max=3.5 * find_U(delta))
    n = min(len(short.samples), len(longer.samples))
    assert np.allclose(short.samples[:n], longer.samples[:n], atol=1e-12)
