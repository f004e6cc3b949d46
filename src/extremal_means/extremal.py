"""First zeros of the truncated means and the two summary tables.

The cutoff profile chi_delta (1 on [0,1), -delta on [1,U)) produces a mean
sigma_delta that decreases from 1 and crosses zero at a finite point U_delta
once delta > 0.  This module locates that first zero on the solutions from
sigma, inverts the map delta -> U_delta, builds chi_delta, and integrates
the mean up to the zero by the delay equation's integral identity, from
point values of the mean and no quadrature of it.  Those operations
generate the two tables exported by the command line tool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import SolutionGrid
from .piecewise import ConstantSegment, PiecewiseFunction, bisect
from .sigma import (
    closed_tail_dilog,
    closed_tail_integral,
    sigma_closed,
    sigma_dde,
    sigma_dde_to_first_zero,
)

# Above this delta the first zero sits in (1,2] and solves
# (1+delta) log U = 1 exactly.  Equals 1/log(2) - 1.
CLOSED_FORM_DELTA = 1.0 / math.log(2.0) - 1.0

# Smallest first zero: U(1) = sqrt(e), and U decreases in delta.
U_MIN = math.exp(0.5)

# Zeros beyond this are treated as out of range; the search raises instead
# of chasing a crossing that the grid cannot certify.
U_CAP = 12.0

# First row of the order table (drift 1/3).
FIRST_TABLE_ORDER = 4

_BISECT_TOL_U = 1e-13
_BISECT_TOL_DELTA = 1e-12

# The zero searches screen each bisection step with a cheap value in units
# of the mean: past this margin its sign is the exact one, inside it the
# exact predicate decides.  Measured gaps, at most 1/100 of the margin:
# - the closed mean with the dilogarithm T against sigma_closed, 6.8e-14
#   (the quadrature T's own error) at 20,000 random points of
#   [DELTA_AT_3, CLOSED_FORM_DELTA) x (2, 3]; on (1, 2] they are equal;
# - the zero Uc of the march at step _SCREEN_STEP against find_U, scaled
#   by the slope |s'(U)| = (1 + delta) s(U - 1) / U, 3.3e-14 over 2,000
#   drifts in [1e-14, DELTA_AT_3).  Unscaled, |Uc - U| grows from 3.5e-13
#   near U = 3 to 4.2e-3 at U = 11.7, so no margin in u would do.
_SCREEN_MARGIN = 1e-11
_SCREEN_STEP = 1e-3


class RootNotFoundError(RuntimeError):
    """No sign change found below the cap; the drift is too weak."""


def _screened(cheap, exact):
    """Bisection predicate: cheap(x) > 0 where |cheap(x)| > _SCREEN_MARGIN,
    else exact(x).  cheap may return None to leave the step to exact."""

    def below(x: float) -> bool:
        c = cheap(x)
        if c is None or abs(c) <= _SCREEN_MARGIN:
            return exact(x)
        return c > 0.0

    return below


def locate_first_zero(grid: SolutionGrid) -> float | None:
    """First u with grid value <= 0, refined on the cubic interpolant.

    Returns None when every node stays positive; find_U reads the one grid
    of sigma_dde_to_first_zero.  The scan starts after the initial plateau;
    the zero lies in the cell [(i-1)h, ih] that ends at the first
    non-positive node i, bisected on the grid's scalar_cubic: the doubles
    of value_cubic, with the range check and the stencil lookups hoisted.
    """
    neg = np.nonzero(grid.values[grid.m + 1 :] <= 0.0)[0]
    if not neg.size:
        return None
    i = int(neg[0]) + grid.m + 1
    if grid.values[i] == 0.0:
        return i * grid.h
    # cubic interpolant sign bisection; the bracket is one cell wide
    cubic = grid.scalar_cubic()
    return bisect(lambda u: cubic(u) > 0.0, (i - 1) * grid.h, i * grid.h, _BISECT_TOL_U)


def find_U(delta: float, use_closed_form: bool = True) -> float:
    """First zero of the cutoff mean for drift strength delta.

    Three regimes: an explicit exponential for large delta, a bisection on
    the closed-form mean while the zero is at most 3, and a marched grid
    beyond that.  Raises RootNotFoundError when the zero would exceed U_CAP.
    `use_closed_form=False` forces the bisection branch (used to test that
    the branches agree at the seam): it bisects (1, 2] from the same
    threshold, delta >= CLOSED_FORM_DELTA.

    Past (1, 2], the zero lies in (2, 3] exactly when delta >= DELTA_AT_3:
    U decreases in delta, and DELTA_AT_3 = delta_for_U(3) is the drift
    whose closed mean vanishes at 3, the smaller root of the quadratic in
    1 + delta.

    Each step of those bisections is screened: the closed mean with the
    dilogarithm T (sigma.closed_tail_dilog, T = 0 up to 2) decides it when
    it lies more than _SCREEN_MARGIN from 0, and sigma_closed with the
    quadrature T otherwise.  The two differ by at most 1/100 of the margin,
    so every step, and the zero, is that of the bisection on sigma_closed
    alone, with a T quadrature only in the last few steps.

    The march (sigma_dde_to_first_zero) stops at the first whole unit that
    holds a non-positive node, not at U_CAP.  A shorter march is the start
    of a longer one with the same stencils (sigma._march_step_profile), so
    the zero is the one the U_CAP grid gives, bit for bit.  The table rows
    and the renewal and tracking readers take that march as their mean
    grid (see mean_grid).
    """
    return _zero_and_march(delta, use_closed_form)[0]


def _zero_and_march(
    delta: float, use_closed_form: bool = True
) -> tuple[float, SolutionGrid | None]:
    """find_U(delta, use_closed_form) and the grid its zero was read from:
    the march on the marched branch, None on the closed and bisection ones."""
    delta = float(delta)
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if use_closed_form and delta >= CLOSED_FORM_DELTA:
        return math.exp(1.0 / (1.0 + delta)), None

    if delta >= CLOSED_FORM_DELTA:
        lo, hi = 1.0, 2.0
    elif delta >= DELTA_AT_3:
        lo, hi = 2.0, 3.0
    else:
        march = sigma_dde_to_first_zero(delta, U_CAP)
        zero = locate_first_zero(march)
        if zero is None:
            raise RootNotFoundError(
                f"mean stays positive up to u = {U_CAP}; delta = {delta} is too small"
            )
        return zero, march
    x = 1.0 + delta
    below = _screened(
        lambda u: 1.0 - x * math.log(u) + 0.5 * x * x * closed_tail_dilog(u),
        lambda u: sigma_closed(delta, u) > 0.0,
    )
    return bisect(below, lo, hi, _BISECT_TOL_U), None


def chi_delta(delta: float) -> PiecewiseFunction:
    """Cutoff step profile: 1 on [0,1), -delta on [1,U), 0 from U on,
    with U the first zero of the induced solution."""
    U = find_U(delta)
    return PiecewiseFunction(
        breakpoints=(0.0, 1.0, U),
        segments=(ConstantSegment(1.0), ConstantSegment(-delta), ConstantSegment(0.0)),
    )


def delta_for_U(u: float) -> float:
    """Drift strength whose mean first vanishes at u.  Inverse of find_U.

    Closed form for u <= 3: with x = 1 + delta the closed mean
    1 - x log u + T(u) x^2 / 2 is a quadratic in x (T = 0 for u <= 2),
    and delta comes from its smaller root, written without cancellation.
    On (3, U_CAP] a monotone bisection in delta asks whether
    find_U(d) >= u, and find_U marches only to the first whole unit that
    holds the zero, so a step near the answer marches about ceil(u)
    units, not U_CAP.  For d >= DELTA_AT_3, find_U(d) is at most 3 (the
    closed form or a bisection on [2, 3]), so the answer is False without
    a call: the same answers, midpoints and result, with no T quadrature.

    Below DELTA_AT_3 each step is screened by the zero Uc of the same
    Richardson march at step _SCREEN_STEP: its offset from u, scaled to the
    mean by the slope |s'(U)| = (1 + d) s(U - 1) / U of the delay equation,
    decides the step when it clears _SCREEN_MARGIN, and find_U(d) >= u
    otherwise, or when that march has no zero below U_CAP.  The scaled gap
    between Uc and find_U is at most 1/100 of the margin, so every answer
    is find_U's and the result is the unscreened bisection's, bit for bit;
    find_U runs in 6 to 9 of the 44 to 67 steps (u from 3.5 to 12).
    """
    u = float(u)
    if not U_MIN <= u <= U_CAP:
        raise ValueError(f"u must lie in [sqrt(e), {U_CAP}], got {u}")
    if u <= 3.0:
        log_u = math.log(u)
        return 2.0 / (log_u + math.sqrt(log_u * log_u - 2.0 * closed_tail_integral(u))) - 1.0

    # u in (3, U_CAP]: bracket from above, then bisect on find_U itself.
    # RootNotFoundError means the zero is past the cap, hence past u.
    def zero_at_or_past_u(d: float) -> bool:
        try:
            return find_U(d) >= u
        except RootNotFoundError:
            return True

    # the screen: the coarse zero's offset from u, scaled to the mean by the
    # slope |s'(U)| = (1 + d) s(U - 1) / U of the delay equation
    def coarse_offset(d: float) -> float | None:
        grid = sigma_dde_to_first_zero(d, U_CAP, _SCREEN_STEP)
        zero = locate_first_zero(grid)
        if zero is None:
            return None
        return (zero - u) * (1.0 + d) * grid.value_cubic(zero - 1.0) / zero

    screened = _screened(coarse_offset, zero_at_or_past_u)

    def below(d: float) -> bool:
        return d < DELTA_AT_3 and screened(d)  # else find_U(d) <= 3 < u

    lo = 0.03
    while not below(lo):
        lo *= 0.25
        if lo < 1e-15:
            raise RootNotFoundError(f"could not bracket delta for u = {u}")
    return bisect(below, lo, CLOSED_FORM_DELTA, _BISECT_TOL_DELTA)


# Drift whose first zero is 3: find_U bisects the closed mean on [2, 3]
# from here up.
DELTA_AT_3 = delta_for_U(3.0)


def _check_zero(U: float) -> None:
    if not 1.0 < U <= U_CAP:
        raise ValueError(f"U must be finite and lie in (1, {U_CAP}], got {U}")


def mean_grid(delta: float, U: float) -> SolutionGrid:
    """The pre-cutoff mean for delta, marched on [0, max(2, ceil U)].

    compute_I reads the mean past 3 off this grid; on a marched drift the
    table rows and the renewal and tracking readers read find_U's march
    instead.  That march ends on the whole unit that holds U, and it is a
    node-for-node prefix of this grid with the same stencils below its
    last node (sigma._march_step_profile, grid._stencil_start), so every
    value on [0, U] is the same double.
    """
    _check_zero(U)
    return sigma_dde(delta, float(max(2, math.ceil(U + 1e-12))), richardson=True)


def _zero_and_mean_grid(delta: float) -> tuple[float, SolutionGrid]:
    """find_U(delta) and a grid that reads the mean on [0, U] as
    mean_grid(delta, U) does: find_U's march on a marched drift."""
    U, march = _zero_and_march(delta)
    return U, mean_grid(delta, U) if march is None else march


def compute_I(delta: float, U: float) -> float:
    """Average of the cutoff mean over [0, U]: the table quantity I.

    U is the first zero for delta.  Integrating the delay equation
    d/du[u*s] = s(u) - x*s(u-1), x = 1 + delta, over [1, w] gives
    F(w) = w*s(w) + x*F(w-1) for F(w) = int_0^w s, with F(w) = w on
    [0, 1].  So F(U) needs s only at U, U-1, ..., U-floor(U)+1, read
    from sigma_closed up to 3 and past 3 from its own mean_grid march,
    the route that verify and the tests hold table_by_order against.
    """
    delta = float(delta)
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    _check_zero(U)
    return _mean_to_zero(delta, U, mean_grid(delta, U) if U > 3.0 else None)


def _mean_to_zero(delta: float, U: float, grid: SolutionGrid | None) -> float:
    """compute_I(delta, U) for a checked drift and zero, reading the mean
    past 3 off `grid`."""
    n = math.floor(U)
    total = U - n
    for j in range(n - 1, -1, -1):
        w = U - j
        s = sigma_closed(delta, w) if w <= 3.0 else grid.value_cubic(w)
        total = w * s + (1.0 + delta) * total
    return total / U


@dataclass(frozen=True)
class TableRow:
    """One report line: key column, drift, first zero, mean value."""

    key: float | int
    delta: float
    U: float
    I: float
    gamma_Sk: float | None = None


# Columns of the two summary tables: (header, TableRow field), key column
# first.  The cli prints them and verify reads the golden CSVs by them.
TABLE_COLUMNS = {
    "u": (("u", "key"), ("delta", "delta"), ("I", "I")),
    "k": (("k", "key"), ("delta", "delta"), ("U", "U"), ("I", "I"), ("gamma_Sk", "gamma_Sk")),
}


def gamma_odd_order(k: int) -> float:
    """Sharper mean-value floor available for odd-order value sets.

    k may be an int or an integer-valued float such as 5.0.
    """
    if not (math.isfinite(k) and int(k) == k and k >= 3 and k % 2 == 1):
        raise ValueError(f"k must be an odd integer and at least 3, got {k}")
    k = int(k)
    a = 1.0 + math.cos(math.pi / k)
    return a * (1.0 - math.exp(-1.0 / a))


def table_by_first_zero() -> tuple[TableRow, ...]:
    """Rows keyed by the first zero u, from sqrt(e) up to 3 in steps of 0.1."""
    keys = [U_MIN] + [round(1.7 + 0.1 * j, 1) for j in range(14)]
    rows = []
    for u in keys:
        d = delta_for_U(u)
        rows.append(TableRow(key=u, delta=d, U=u, I=compute_I(d, U=u)))
    return tuple(rows)


def table_by_order(k_max: int = 17) -> tuple[TableRow, ...]:
    """Rows keyed by the order k = 4, ..., k_max of the value set, with drift 1/(k-1).

    Each row is find_U(d) and compute_I(d, U) for d = 1/(k-1), field for
    field.  Past k = 17 the drift is below DELTA_AT_3 and the zero is
    marched; I then reads the mean off that march (see mean_grid), so the
    row marches once.
    """
    if not (isinstance(k_max, int) and FIRST_TABLE_ORDER <= k_max <= 64):
        raise ValueError(f"k_max must be an integer in [{FIRST_TABLE_ORDER}, 64], got {k_max}")
    rows = []
    for k in range(FIRST_TABLE_ORDER, k_max + 1):
        d = 1.0 / (k - 1)
        u, march = _zero_and_march(d)
        g = gamma_odd_order(k) if k % 2 == 1 else None
        rows.append(TableRow(key=k, delta=d, U=u, I=_mean_to_zero(d, u, march), gamma_Sk=g))
    return tuple(rows)
