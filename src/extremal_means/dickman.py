"""The smooth-number density function and its delay-equation table.

rho(u) solves u*rho'(u) = -rho(u-1) with rho = 1 on [0, 1].  Closed
forms exist through u = 2 (1 - log u on [1, 2]); past that the table is
the step-profile march at rate 1 (grid.solve_step_profile), sharpened by
one Richardson extrapolation against a half-step solve.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .grid import SolutionGrid, solve_step_profile
from .piecewise import bisect, integrate_callable

__all__ = [
    "default_table",
    "rho",
    "rho_inverse",
    "rho_total_integral",
    "dde_residual_max",
]

LOG2 = float(np.log(2.0))


@cache
def default_table() -> SolutionGrid:
    """rho on [0, 40] at step 1e-4, sharpened by one Richardson pass."""
    return solve_step_profile(1.0, 40.0, 1e-4, True)


def rho(u: float | np.ndarray) -> float | np.ndarray:
    """rho(u); exact on [0, 2], cubic off-grid interpolation beyond."""
    grid = default_table()
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    u_arr = np.atleast_1d(u_arr)
    if not np.all(np.isfinite(u_arr)):
        raise ValueError("argument must be finite")
    out = np.zeros_like(u_arr)
    if np.any(u_arr < 0.0):
        raise ValueError("argument must be nonnegative")
    if np.any(u_arr > grid.u_max + 1e-12):
        raise ValueError("argument beyond tabulated range")
    low = u_arr <= 1.0
    out[low] = 1.0
    mid = (u_arr > 1.0) & (u_arr <= 2.0)
    out[mid] = 1.0 - np.log(u_arr[mid])
    high = u_arr > 2.0
    if np.any(high):
        out[high] = grid.value_cubic(u_arr[high])
    if scalar:
        return float(out[0])
    return out


def rho_inverse(x: float) -> float:
    """Smallest u >= 1 with rho(u) = x, for 0 < x <= 1.

    The branch on [1, 2] inverts in closed form; below rho(2) the
    table is bisected (rho is strictly decreasing for u >= 1).
    """
    if not 0.0 < x <= 1.0:
        raise ValueError("inverse needs 0 < x <= 1")
    if x >= 1.0 - LOG2:
        return float(np.exp(1.0 - x))
    top = default_table().u_max
    if rho(top) > x:
        raise ValueError("target below the tabulated range of rho")
    return bisect(lambda u: rho(u) > x, 2.0, top, 1e-13)


def rho_total_integral(u_cut: float = 20.0) -> float:
    """integral_0^{u_cut} rho; converges to exp(Euler gamma) as u_cut grows.

    [0, 2] in closed form (integral of 1 - log u is 2u - u log u - 2
    past 1), then adaptive quadrature on the table split at integer
    kink points.
    """
    top = default_table().u_max
    if not 2.0 <= u_cut <= top:
        raise ValueError(f"u_cut must be finite and lie in [2, {top}], got {u_cut}")
    closed = 1.0 + (2.0 * 2.0 - 2.0 * np.log(2.0) - 2.0) - 0.0
    if u_cut == 2.0:
        return closed
    cuts = [float(k) for k in range(3, int(np.floor(u_cut)) + 1)]
    tail = integrate_callable(lambda t: np.asarray(rho(t)), 2.0, u_cut, tol=1e-10, breakpoints=cuts)
    return closed + tail.value


def dde_residual_max(lo: float = 1.5, hi: float = 10.0) -> float:
    """Max |u*rho'(u) + rho(u-1)| over grid nodes in [lo, hi].

    rho' is taken by centered differences on the table.  Nodes where
    the second derivative jumps (u = 2 exactly) are excluded: a
    centered difference straddling a curvature jump is only first
    order accurate, which says nothing about the table itself.
    """
    if not 0.0 <= lo < math.inf:
        raise ValueError(f"lo must be finite and >= 0, got {lo}")
    if not lo < hi < math.inf:
        raise ValueError(f"hi must be finite and > lo = {lo}, got {hi}")
    g = default_table()
    h, v = g.h, g.values
    m = g.m
    n_lo = max(int(np.ceil(lo / h)), m + 1)
    n_hi = min(int(np.floor(hi / h)), len(v) - 2)
    idx = np.arange(n_lo, n_hi + 1)
    idx = idx[idx != 2 * m]
    if not idx.size:
        raise ValueError(f"[{lo}, {hi}] holds no table node past u = 1 other than u = 2")
    deriv = (v[idx + 1] - v[idx - 1]) / (2.0 * h)
    resid = idx * h * deriv + v[idx - m]
    return float(np.max(np.abs(resid)))
