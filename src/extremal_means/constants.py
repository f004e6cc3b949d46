"""Closed-form constants and small one-dimensional optimizations.

Everything here sits a few lines of calculus away from the profile
machinery: the three-branch bound for order-4 value sets, the crossing of
two deficiency bounds for unit-disc values, and the minimization behind
the average-case factor.  The order-4 extremum and the crossing are
closed forms; the average-case stationary point, e^{-c} = c, is found by
bisection.  Nothing here touches the marched tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .piecewise import bisect, integrate_callable

LOG2 = math.log(2.0)
SQRT2 = math.sqrt(2.0)

# all-orders limit of the order constants
ORDER_LIMIT_VALUE = 34.0 / 35.0


@dataclass(frozen=True)
class OrderConstant:
    """Upper-bound constant for one order of the value set.

    `argmin_or_max` carries the extremizer when the constant comes out of
    an optimization (order 4); closed forms leave it None.
    """

    k: float
    value: float
    argmin_or_max: float | None = None


@dataclass(frozen=True)
class UnitDiscBounds:
    """Crossing point of the rising and falling deficiency bounds."""

    A_star: float
    B_star: float
    check_34_35: bool


@dataclass(frozen=True)
class AverageBoundResult:
    """Stationary point and value of the average-bound objective."""

    c_star: float
    K: float


def order4_bound(A: float, B: float) -> float:
    """Three-branch bound for order-4 value sets; non-increasing in both.

    The arguments are the plain and log-weighted deficiency sums of the
    underlying multiplicative function; the branch is selected by where
    (A, B) falls relative to the lines A + B = log 2 and B = log 2.  Both
    seams are continuous (the adjacent formulas agree exactly on them).
    """
    A = float(A)
    B = float(B)
    for name, x in (("A", A), ("B", B)):
        if not 0.0 <= x < math.inf:
            raise ValueError(f"{name} must be finite and nonnegative, got {x}")
    if A + B <= LOG2:
        return 3.0 - 2.0 * B - (2.0 - SQRT2) * (A + math.exp(-A - B)) - SQRT2 * math.exp(-B)
    if B <= LOG2:
        return (
            2.0
            + 1.0 / SQRT2
            - (1.0 - 1.0 / SQRT2) * (A + LOG2)
            - SQRT2 * math.exp(-B)
            - (1.0 + 1.0 / SQRT2) * B
        )
    return 2.0 - LOG2 - B - (1.0 - 1.0 / SQRT2) * A


def extremize_order4() -> OrderConstant:
    """Maximize the slice A -> order4_bound(A, (1-A)/2) over [0, 1].

    With B = (1-A)/2 the slice leaves the first branch once
    A + B > log 2, that is A > 2 log 2 - 1, and stays in the second branch
    (B <= log 2 throughout).  There it reads, up to a constant,
    -(1 - 1/sqrt(2)) A - sqrt(2) e^{-B} - (1 + 1/sqrt(2)) B, which is
    strictly concave in A; its derivative vanishes where
    e^{-B} = (3 - sqrt(2))/2, so the maximizer is
    A0 = 1 + 2 log((3 - sqrt(2))/2) = 0.53586..., inside the branch.  On
    the first branch the slice rises (its A-derivative is positive), so A0
    is the maximum over all of [0, 1].
    """
    A0 = 1.0 + 2.0 * math.log((3.0 - SQRT2) / 2.0)
    return OrderConstant(k=4, value=order4_bound(A0, 0.5 * (1.0 - A0)), argmin_or_max=A0)


def order_constant(k: float) -> OrderConstant:
    """Upper-bound constant for order k (math.inf for the common limit)."""
    if k != math.inf:
        if not (math.isfinite(k) and int(k) == k and k >= 2):
            raise ValueError(f"order k must be an integer >= 2 or inf, got {k}")
        k = int(k)
    if k == 2:
        return OrderConstant(k=2, value=2.0 - 2.0 / math.sqrt(math.e))
    if k == 3:
        return OrderConstant(k=3, value=4.0 / 3.0 - math.exp(-2.0 / 3.0))
    if k == 4:
        return extremize_order4()
    return OrderConstant(k=k, value=ORDER_LIMIT_VALUE)


def order3_profile_average(u: float) -> float:
    """Average of the order-3 deficiency profile, computed by quadrature.

    The profile keeps the bound 1/2 up to sqrt(u), then pays 1/t on
    (sqrt(u), u^a] and (1/3 + log(log u / log t))/t on (u^a, u] with
    a = e^{-2/3}.  The log-scaled average is independent of u and equals
    order_constant(3).value exactly; evaluating it numerically for one u
    is a self-test of that closed form.
    """
    u = float(u)
    if not 1.0 < u < math.inf:
        raise ValueError(f"u must be finite and > 1, got {u}")
    log_u = math.log(u)
    a = math.exp(-2.0 / 3.0)
    mid = u**a
    first = integrate_callable(lambda t: 1.0 / t, math.sqrt(u), mid, tol=1e-13)

    def tail_integrand(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return (1.0 / 3.0 + np.log(log_u / np.log(t))) / t

    second = integrate_callable(tail_integrand, mid, u, tol=1e-13)
    return 0.5 + (first.value + second.value) / log_u


def unit_disc_bounds() -> UnitDiscBounds:
    """Crossing of the two deficiency bounds for unit-disc valued profiles.

    The rising bound B >= A - 2 + 2 e^{-A/2} and the falling bound
    B >= 2 e^{(1-A)/2} + A - 3 cross where their gap
    1 + 2 (1 - sqrt(e)) e^{-A/2} vanishes, that is where
    e^{A/2} = 2 (sqrt(e) - 1): A* = 2 log(2 (sqrt(e) - 1)).  The flag
    records the chain 1 - 33 B*/70 <= 34/35.
    """
    A_star = 2.0 * math.log(2.0 * (math.sqrt(math.e) - 1.0))
    B_star = A_star - 2.0 + 2.0 * math.exp(-0.5 * A_star)
    check = 1.0 - 33.0 * B_star / 70.0 <= ORDER_LIMIT_VALUE
    return UnitDiscBounds(A_star=A_star, B_star=B_star, check_34_35=check)


def average_bound_objective(c: float) -> float:
    """log of the factor to minimize: c - log c + int_0^1 (1-e^{-ct})/t dt.

    The integrand has a removable singularity at t = 0 (limit c); the
    small-argument series keeps full precision there.
    """
    c = float(c)
    if not 0.0 < c < math.inf:
        raise ValueError(f"c must be finite and > 0, got {c}")

    def integrand(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        x = c * t
        out = np.empty_like(t)
        small = x < 1e-8
        out[small] = c * (1.0 - 0.5 * x[small])
        out[~small] = -np.expm1(-x[~small]) / t[~small]
        return out

    res = integrate_callable(integrand, 0.0, 1.0, tol=1e-13)
    return c - math.log(c) + res.value


def optimize_average_bound() -> AverageBoundResult:
    """Minimize the average-bound factor over c > 0.

    Stationarity of c - log c + int_0^1 (1-e^{-ct})/t dt reduces to
    e^{-c} = c (differentiating under the integral collapses the integral
    term to (1 - e^{-c})/c); that root is found by bisection and the
    reported K divides out the universal e^gamma factor.
    """

    c_star = bisect(lambda c: math.exp(-c) - c > 0.0, 0.1, 1.0)
    K = math.exp(average_bound_objective(c_star)) / math.exp(np.euler_gamma)
    return AverageBoundResult(c_star=c_star, K=K)


def deficiency_bound(value: float, variant: str) -> float:
    """Closed-form mean bounds as a function of the deficiency sum.

    variant "first" is the cheap half-deficiency cut 1 - value/2;
    variant "final" is the refined 3 - value - 2 e^{-value/2}.
    """
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"deficiency argument must lie in [0, 1], got {value}")
    if variant == "first":
        return 1.0 - 0.5 * value
    if variant == "final":
        return 3.0 - value - 2.0 * math.exp(-0.5 * value)
    raise ValueError(f"unknown variant {variant!r}")
