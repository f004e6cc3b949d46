"""The smooth-number density function and its per-unit power series.

rho(u) solves u*rho'(u) = -rho(u-1) with rho = 1 on [0, 1].  Closed
forms exist through u = 2 (1 - log u on [1, 2]); past that each unit
[k, k+1] holds one power series about its centre c = k + 1/2, the
classical route of van de Lune & Wattel (Math. Comp. 23, 1969) and
Marsaglia, Zaman & Marsaglia (Math. Comp. 53, 1989).

With rho(c + z) = sum a_n z^n and b_n the previous unit's coefficients,
the delay equation gives c*(n+1)*a_{n+1} + n*a_n = -b_n, which fixes
a_1, a_2, ... from b alone.  a_0 comes from the integral form of the
equation, u*rho(u) = integral_{u-1}^{u} rho, taken at z = 0:

    k*a_0 = sum b_n (1/2)^(n+1)/(n+1) + sum_{n>=1} a_n (-1)^n (1/2)^(n+1)/(n+1),

a sum of positive terms.  Continuity at u = k would instead subtract
nearly equal numbers and lose relative accuracy unit by unit.  A unit's
continuation is singular only at the integers <= k - 1, 3/2 from the
centre, so the terms fall like 3^-n and 40 of them reach 1e-19.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

__all__ = [
    "default_table",
    "rho",
    "rho_total_integral",
    "dde_residual_max",
]

UNITS = 40  # rho is tabulated on [0, UNITS]
TERMS = 40
U_MAX = float(UNITS)

# integral_0^{1/2} z^n dz = (1/2)^(n+1)/(n+1)
_HALF_MOMENTS = [0.5 ** (n + 1) / (n + 1) for n in range(TERMS)]

# dde_residual_max differentiates rho at the nodes of this step
RESIDUAL_STEPS = 10_000
RESIDUAL_H = 1.0 / RESIDUAL_STEPS


@cache
def default_table() -> np.ndarray:
    """Coefficients of rho about k + 1/2 on the units [k, k+1], k < UNITS.

    Row k holds a_0, ..., a_{TERMS-1}; row 0 is the constant 1.  Built in
    plain floats; the array is read-only.
    """
    prev = [1.0] + [0.0] * (TERMS - 1)
    rows = [prev]
    for k in range(1, UNITS):
        c = k + 0.5
        a = [0.0] * TERMS
        for n in range(TERMS - 1):
            a[n + 1] = -(prev[n] + n * a[n]) / (c * (n + 1))
        total = sum(b * w for b, w in zip(prev, _HALF_MOMENTS))
        total += sum(a[n] * (-w if n % 2 else w) for n, w in enumerate(_HALF_MOMENTS) if n)
        a[0] = total / k
        rows.append(a)
        prev = a
    table = np.array(rows)
    table.flags.writeable = False
    return table


def rho(u: float | np.ndarray) -> float | np.ndarray:
    """rho(u); exact on [0, 2], one unit's power series beyond.

    u in (k, k+1] reads unit k (u = 40 the last unit), evaluated by
    Horner over one gathered coefficient column per term.
    """
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    u_arr = np.atleast_1d(u_arr)
    # written so that NaN fails it too
    inside = (u_arr >= 0.0) & (u_arr <= U_MAX + 1e-12)
    if not inside.all():
        raise ValueError(f"u must be finite and lie in [0, {U_MAX}], got {u_arr[~inside][0]}")
    out = np.zeros_like(u_arr)
    low = u_arr <= 1.0
    out[low] = 1.0
    mid = (u_arr > 1.0) & (u_arr <= 2.0)
    out[mid] = 1.0 - np.log(u_arr[mid])
    high = u_arr > 2.0
    if np.any(high):
        uh = u_arr[high]
        k = np.minimum(np.ceil(uh).astype(np.intp) - 1, UNITS - 1)
        z = uh - (k + 0.5)
        columns = default_table().T
        acc = columns[-1][k]
        for col in columns[-2::-1]:
            acc *= z
            acc += col[k]
        out[high] = acc
    if scalar:
        return float(out[0])
    return out


def rho_total_integral(u_cut: float = 20.0) -> float:
    """integral_0^{u_cut} rho; converges to exp(Euler gamma) as u_cut grows.

    The integral form u*rho(u) = integral_{u-1}^{u} rho gives
    F(u) = u*rho(u) + F(u-1) for F(u) = integral_0^u rho, with F(u) = u
    on [0, 1], so F(u_cut) = u_cut - n + sum_{j<n} (u_cut-j)*rho(u_cut-j),
    n = floor(u_cut).
    """
    if not 2.0 <= u_cut <= U_MAX:
        raise ValueError(f"u_cut must be finite and lie in [2, {U_MAX}], got {u_cut}")
    n = math.floor(u_cut)
    w = u_cut - np.arange(n)
    return float(u_cut - n + np.sum(w * rho(w)))


def dde_residual_max(lo: float = 1.5, hi: float = 10.0) -> float:
    """Max |u*rho'(u) + rho(u-1)| over the nodes of step RESIDUAL_H in [lo, hi].

    rho' is taken by centered differences of rho at the nodes.  Nodes
    where the second derivative jumps (u = 2 exactly) are excluded: a
    centered difference straddling a curvature jump is only first
    order accurate, which says nothing about rho itself.
    """
    if not 0.0 <= lo < math.inf:
        raise ValueError(f"lo must be finite and >= 0, got {lo}")
    if not lo < hi < math.inf:
        raise ValueError(f"hi must be finite and > lo = {lo}, got {hi}")
    h, m = RESIDUAL_H, RESIDUAL_STEPS
    n_lo = max(int(np.ceil(lo / h)), m + 1)
    n_hi = min(int(np.floor(hi / h)), UNITS * m - 1)
    idx = np.arange(n_lo, n_hi + 1)
    idx = idx[idx != 2 * m]
    if not idx.size:
        raise ValueError(f"[{lo}, {hi}] holds no table node past u = 1 other than u = 2")
    # v holds rho at every node read: the delayed n - m up to the last n + 1
    base = n_lo - m
    v = rho(np.arange(base, n_hi + 2) * h)
    j = idx - base
    deriv = (v[j + 1] - v[j - 1]) / (2.0 * h)
    resid = idx * h * deriv + v[j - m]
    return float(np.max(np.abs(resid)))
