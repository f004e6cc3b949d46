"""Piecewise function containers, quadrature and root bracketing.

Profiles handled here are right-continuous on [0, inf): a sorted tuple
of breakpoints splits the domain into half-open cells [b_i, b_{i+1}),
each owned by a constant or sampled segment that evaluates on arrays.
integrate_callable is the package's one quadrature (split at kinks by
the caller) and bisect its one scalar root search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ConstantSegment",
    "SampledSegment",
    "PiecewiseFunction",
    "QuadratureResult",
    "QuadratureError",
    "integrate_callable",
    "bisect",
    "linear_at",
]


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    est_error: float
    evaluations: int


def linear_at(x: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """x at fractional node positions pos in [0, len(x) - 1], linearly."""
    i0 = np.minimum(pos.astype(np.int64), len(x) - 2)
    frac = pos - i0
    return x[i0] * (1.0 - frac) + x[i0 + 1] * frac


@dataclass(frozen=True)
class ConstantSegment:
    """Segment that is identically `value` on its cell."""

    value: float

    def values(self, t: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(t, dtype=float), self.value)


@dataclass(frozen=True, eq=False)
class SampledSegment:
    """Segment stored as equally spaced samples, interpolated linearly.

    samples[j] is the value at start + j*h.  Evaluation off the last
    sample is clamped; callers are expected to size the table so that
    never matters.
    """

    start: float
    h: float
    samples: np.ndarray = field(repr=False)

    def values(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        pos = np.clip((t - self.start) / self.h, 0.0, len(self.samples) - 1.0)
        return linear_at(self.samples, pos)


Segment = ConstantSegment | SampledSegment


@dataclass(frozen=True)
class PiecewiseFunction:
    """Right-continuous piecewise function on [0, domain_end).

    breakpoints[i] opens the cell [breakpoints[i], breakpoints[i+1]) owned
    by segments[i]; the first breakpoint must be 0.  A validated container:
    solve_volterra reads its cells, and ExtendedChi.value evaluates a
    profile.
    """

    breakpoints: tuple[float, ...]
    segments: tuple[Segment, ...]
    domain_end: float = np.inf

    def __post_init__(self) -> None:
        if len(self.breakpoints) != len(self.segments):
            raise ValueError("need one segment per breakpoint")
        bp = np.asarray(self.breakpoints, dtype=float)
        if not np.isfinite(bp).all():
            raise ValueError(f"breakpoints must be finite, got {bp[~np.isfinite(bp)][0]}")
        if bp[0] != 0.0:
            raise ValueError("domain must start at 0")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not bp[-1] < self.domain_end:  # written so that NaN fails it too
            raise ValueError(
                f"domain_end must exceed the last breakpoint {bp[-1]}, got {self.domain_end}"
            )


def _adaptive_simpson(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float,
) -> QuadratureResult:
    """Trapezoid halving with one Richardson column (global Simpson).

    Doubles the node count until consecutive Simpson values agree within
    tol.  Evaluations are batched per level, which keeps smooth research
    integrands fast without recursion bookkeeping.  Each level is summed
    by np.add.reduce, the reduction that np.sum wraps, so the pairwise sum
    and its bits are those of np.sum without the wrapper's cost.
    """
    fa, fb = float(fn(np.array([a]))[0]), float(fn(np.array([b]))[0])
    evals = 2
    trap = 0.5 * (b - a) * (fa + fb)
    simpson_prev = None
    n = 1  # current panel count of the trapezoid rule
    for _ in range(24):  # at most 2^24 panels
        # midpoints of the current panels, chunked so huge levels stay in memory
        step = (b - a) / n
        total_mid = 0.0
        chunk = 1 << 20
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            xm = a + (np.arange(lo, hi, dtype=float) + 0.5) * step
            total_mid += float(np.add.reduce(np.asarray(fn(xm), dtype=float)))
            evals += hi - lo
        trap_next = 0.5 * trap + 0.5 * step * total_mid
        simpson = (4.0 * trap_next - trap) / 3.0
        if simpson_prev is not None:
            err = abs(simpson - simpson_prev)
            if err <= tol * max(1.0, abs(simpson)):
                return QuadratureResult(float(simpson), float(err), evals)
        simpson_prev = simpson
        trap = trap_next
        n *= 2
    raise QuadratureError(f"no convergence to {tol:g} on [{a:g}, {b:g}] after 24 halvings")


def integrate_callable(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-10,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Adaptive integral of a vectorized callable, split at interior breakpoints."""
    if not -np.inf < a < np.inf:
        raise ValueError(f"a must be finite, got {a}")
    if not a <= b < np.inf:
        raise ValueError(f"b must be finite and >= a = {a}, got {b}")
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    pts = sorted({a, b} | {p for p in breakpoints if a < p < b})
    value = 0.0
    err = 0.0
    evals = 0
    for lo, hi in zip(pts[:-1], pts[1:]):
        r = _adaptive_simpson(fn, lo, hi, tol)
        value += r.value
        err += r.est_error
        evals += r.evaluations
    return QuadratureResult(value, err, evals)


def bisect(below: Callable[[float], bool], lo: float, hi: float, tol: float = 0.0) -> float:
    """Halve [lo, hi] on a monotone predicate and return the final midpoint.

    below(x) is true when the sought point lies above x, so lo stays on the
    true side and hi on the false side.  Stops once hi - lo <= tol or when
    the midpoint is no longer strictly inside the bracket (lo and hi
    adjacent floats); every halving strictly shrinks the bracket, so the
    loop ends, and below is evaluated only strictly between the original
    ends.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if below(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
