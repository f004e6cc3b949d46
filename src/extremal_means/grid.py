"""Uniform solution grids and the conservative delay-equation stepper.

The delay equations solved in this package all have the conservative form

    d/du [ u * w(u) ] = w(u) - rate * w(u - 1),

so the trapezoid update over one grid cell telescopes: with u_n = n*h the
product (u*w) picks up h*w at the cell midpoint from the first term and
loses rate*(h/2)*(w_{n-m} + w_{n-m-1}) from the delayed term (m = 1/h
steps back).  Dividing by u_n - h/2 = u_{n-1} + h/2 collapses the update
to a single running sum per unit block, which vectorizes.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MAX_NODES",
    "SolutionGrid",
    "integrate_delay_equation",
    "steps_per_unit",
]

# Most nodes a grid may span at its step: 16 MB a float64 array.  It
# bounds what a caller-chosen horizon and step (`sigma --u-max`,
# `chi-extend --h`) can ask for; the marched means and renewal samples
# the package builds itself stay well below it.
MAX_NODES = 2_000_000


def steps_per_unit(h: float, span: float = 1.0) -> int:
    """m = 1/h for a step h that divides 1, checked before anything is allocated.

    A grid over [0, span] at step h may hold at most MAX_NODES nodes past
    its origin (span below 1 counts as 1: every grid holds [0, 1]).
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be a finite positive step, got {h}")
    nodes = max(span, 1.0) / h
    if not nodes <= MAX_NODES:
        raise ValueError(
            f"h = {h} over [0, {span}] needs {nodes:.3g} nodes, more than {MAX_NODES}"
        )
    m = round(1.0 / h)
    if abs(m * h - 1.0) > 1e-12:
        raise ValueError(f"h must divide 1 exactly, got {h}")
    return m


@dataclass(frozen=True, eq=False)
class SolutionGrid:
    """Values of a delay-equation solution on u = 0, h, 2h, ..., u_max.

    The horizon u_max is the last node, read off the values.
    """

    h: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = steps_per_unit(self.h)
        if not np.all(self.values[: m + 1] == 1.0):
            raise ValueError("solution must be identically 1 on [0, 1]")
        # written so that NaN fails it too
        if not (-(1.0 + 1e-6) <= self.values.min() and self.values.max() <= 1.0 + 1e-6):
            raise ValueError("solution escaped the unit band")

    @property
    def m(self) -> int:
        return round(1.0 / self.h)

    @property
    def u_max(self) -> float:
        return (len(self.values) - 1) / self.m

    def value_cubic(self, u: float | np.ndarray) -> np.ndarray | float:
        """Four-point Lagrange interpolation with the stencil kept inside
        one unit interval (the solutions have derivative kinks at integers).

        A scalar u is evaluated in plain floats (scalar_cubic), an array
        in numpy; both take the stencil from _stencil_start, the weights
        from _lagrange_weights and sum in the same order, so a scalar gives
        the same double as the same u inside an array.
        """
        if np.ndim(u) == 0:
            u = float(u)
            if not -1e-12 <= u <= self.u_max + 1e-12:
                raise ValueError(f"u must be finite and lie in [0, {self.u_max}], got {u}")
            return self.scalar_cubic()(u)
        n_last = len(self.values) - 1
        u = np.asarray(u, dtype=float)
        if u.size and not (u.min() >= -1e-12 and u.max() <= self.u_max + 1e-12):
            bad = u[~((u >= -1e-12) & (u <= self.u_max + 1e-12))][0]
            raise ValueError(f"u must be finite and lie in [0, {self.u_max}], got {bad}")
        pos = np.clip(u / self.h, 0.0, float(n_last))
        start = _stencil_start(pos.astype(np.int64), self.m, n_last, np.minimum, np.maximum)
        w0, w1, w2, w3 = _lagrange_weights(pos - start)
        v = self.values
        return w0 * v[start] + w1 * v[start + 1] + w2 * v[start + 2] + w3 * v[start + 3]

    def scalar_cubic(self) -> Callable[[float], float]:
        """value_cubic's scalar path as a function of a float u in [0, u_max].

        It gives value_cubic(u)'s double with no range check, and looks up
        the grid's fields once and each cell's stencil start and four
        values once per evaluator, so a bisection that evaluates the
        interpolant many times (extremal.locate_first_zero) takes one.
        """
        h, m, values = self.h, self.m, self.values
        n_last = len(values) - 1
        top = float(n_last)
        stencils: dict[int, tuple] = {}

        def at(u: float) -> float:
            pos = min(max(u / h, 0.0), top)
            base = int(pos)
            stencil = stencils.get(base)
            if stencil is None:
                start = _stencil_start(base, m, n_last, min, max)
                stencil = stencils[base] = (start, *values[start : start + 4].tolist())
            start, v0, v1, v2, v3 = stencil
            w0, w1, w2, w3 = _lagrange_weights(pos - start)
            return w0 * v0 + w1 * v1 + w2 * v2 + w3 * v3

        return at


def _stencil_start(base, m, n_last, minimum, maximum):
    """First node of the 4-point stencil [start, start + 3] around cell `base`.

    Works on an int with min/max and on an int array with np.minimum and
    np.maximum.  The stencil is clamped inside one unit block: a node on
    an integer belongs to the block below it, except on a horizon off the
    integers, whose top block runs to its last node.  A top block of fewer
    than four nodes borrows the rest from below.
    """
    lo = minimum(base // m, (n_last - 1) // m) * m
    hi = minimum(lo + m, n_last)
    return minimum(maximum(base - 1, lo), hi - 3)


def _lagrange_weights(t):
    """Lagrange weights of nodes 0..3 at offset t, for a float or an array."""
    return (
        -(t - 1.0) * (t - 2.0) * (t - 3.0) / 6.0,
        t * (t - 2.0) * (t - 3.0) / 2.0,
        -t * (t - 1.0) * (t - 3.0) / 2.0,
        t * (t - 1.0) * (t - 2.0) / 6.0,
    )


def integrate_delay_equation(
    values: np.ndarray,
    start: int,
    m: int,
    h: float,
    rate: float,
) -> None:
    """March the conservative delay update in place from index `start`.

    values[:start] must already hold the solution.  Each unit block of at
    most m indices is filled by one cumulative sum, valid because the
    delayed indices i-m, i-m-1 stay strictly below the block start.

    The block is built in values[i:stop] itself, through `out=`, so only
    its denominators are allocated, and they are released before the
    next block's are.  The operations are those of values[i - 1] -
    cumsum(rate * 0.5 * h * (w_{n-m} + w_{n-m-1}) / (n * h - 0.5 * h))
    in the same order, and n converts to a double exactly, so every node
    keeps its bits.
    """
    if start <= m:
        raise ValueError("need the full history u <= 1 before stepping")
    n_total = len(values)
    scale = rate * 0.5 * h
    i = start
    while i < n_total:
        stop = min(i + m, n_total)
        block = values[i:stop]
        np.add(values[i - m : stop - m], values[i - m - 1 : stop - m - 1], out=block)
        np.multiply(block, scale, out=block)
        denom = np.arange(i, stop, dtype=float)
        denom *= h
        denom -= 0.5 * h
        np.divide(block, denom, out=block)
        del denom
        np.cumsum(block, out=block)
        np.subtract(values[i - 1], block, out=block)
        i = stop


def _check_horizon(u_max: float, h: float) -> tuple[int, int]:
    """(m, n): steps per unit and nodes past the origin of a grid that
    reaches u_max, ending on the first node at or past it."""
    if not 0.0 <= u_max < math.inf:
        raise ValueError(f"u_max must be finite and >= 0, got {u_max}")
    return steps_per_unit(h, u_max), math.ceil(u_max / h - 1e-9)
