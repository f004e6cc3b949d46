"""Extending the cutoff profile so the mean vanishes identically.

Past the first zero U the profile is no longer free: requiring the mean to
stay at zero forces the renewal rule

    chi(t) = integral over v in [1, U] of k(v) chi(t - v) dv,   t > U,

with kernel k(v) = (1+delta) s(v-1) / v, where s is the pre-cutoff mean.
The kernel is nonnegative with unit total mass (its antiderivative is
1 - s(x), and s(U) = 0), so each extension value is an average of earlier
profile values; the extension therefore stays inside [-delta, 1] and is
continuous, while the profile itself jumps at U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extremal import _zero_and_mean_grid
from .grid import steps_per_unit
from .piecewise import (
    ConstantSegment,
    PiecewiseFunction,
    SampledSegment,
    integrate_callable,
    linear_at,
)
from .sigma import LaggedSum, solve_volterra


@dataclass(frozen=True, eq=False)
class ExtendedChi:
    """Cutoff profile with its mean-preserving extension past U.

    `value` treats the dip window as the closed interval [1, U]; the
    right-continuous `profile`, whose cells solve_volterra reads, opens
    its extension cell at U instead (the jump is genuine).
    """

    delta: float
    U: float
    h: float
    t_max: float
    samples: np.ndarray
    profile: PiecewiseFunction

    def value(self, t: float | np.ndarray) -> float | np.ndarray:
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        t_arr = np.atleast_1d(t_arr)
        # written so that NaN fails it too
        inside = (t_arr >= 0.0) & (t_arr <= self.t_max + 1e-12)
        if not inside.all():
            bad = t_arr[~inside][0]
            raise ValueError(f"t must be finite and lie in [0, {self.t_max}], got {bad}")
        out = np.empty_like(t_arr)
        head = t_arr < 1.0
        out[head] = 1.0
        dip = (t_arr >= 1.0) & (t_arr <= self.U)
        out[dip] = -self.delta
        tail = t_arr > self.U
        if np.any(tail):
            seg = self.profile.segments[-1]
            out[tail] = seg.values(t_arr[tail])
        return float(out[0]) if scalar else out


def extend_chi(delta: float, t_max: float | None = None, h: float = 1e-4) -> ExtendedChi:
    """March the renewal rule forward on a step-h grid offset from U.

    Each step averages known values: contributions from the sampled
    extension use a trapezoid over kernel nodes, and contributions from the
    constant head/dip windows use the kernel's exact antiderivative
    1 - s(x), so no quadrature error enters from those regions at all.
    Every kernel node lags at least one unit, m = 1/h steps, so the march
    fills m rows at a time from one lagged FFT sum of the earlier rows
    (a sigma.LaggedSum, as each solve_volterra leg takes) and makes no BLAS
    call.  The kernel nodes end at M h <= U, so the sum's window and weight
    list each hold at most J = ceil(M / m) <= ceil(U) spectra, whatever
    t_max is, each of nfft/2 + 1 complex numbers (nfft the least 5-smooth
    length >= 2m - 1, sigma._smooth_length).
    """
    delta = float(delta)
    U, mean_at, kernel = _renewal_kernel(delta)
    if t_max is not None and not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    if t_max is None:
        t_max = 4.0 * U
    m = steps_per_unit(h, t_max)
    if m < 10:
        raise ValueError(f"h must divide 1 with at least 10 steps per unit, got {h}")
    L = int(math.ceil((t_max - U) / h - 1e-9))  # the rows past ext[0] at U
    if L < 1:
        raise ValueError(f"t_max must exceed U = {U}")

    s_at_U = float(mean_at(U))          # ~0 by construction of U

    # kernel nodes j*h for j in [m, M]; the stub [M*h, U] is handled
    # separately (U need not sit on the grid)
    M = int(math.floor(U / h - 1e-12))
    K_nodes = np.zeros(M + 1)
    K_nodes[m:] = kernel(np.arange(m, M + 1) * h)
    K_end = float(kernel(np.array([U]))[0])
    stub = U - M * h

    ext = np.empty(L + 1)

    # chi at U from the right: both constant windows, no sampled region
    ext[0] = (1.0 - s_at_U) - (1.0 + delta) * (1.0 - float(mean_at(U - 1.0)))

    # rows l <= m: every window argument is below U, fully explicit
    x = U - 1.0 + np.arange(1, min(m, L) + 1) * h
    ext[1 : len(x) + 1] = -delta - s_at_U + (1.0 + delta) * mean_at(x)

    # Row l > m is the trapezoid over kernel nodes m..min(l, M) against ext
    # at l - m and below, so a block of m rows is one lagged sum of earlier
    # rows (over the whole block, so it does not depend on t_max) less the
    # half end weights.  A growing row (l <= M) adds the half node ext[0]
    # and the dip window [l*h, U], whose mass the antiderivative gives
    # exactly; a full row adds the stub cell [M*h, U], which reads chi at
    # l*h - U, off the grid.  Built in place, a block keeps no temporary past
    # its statement, so the next block's FFT buffers reuse the same memory.
    lagged = LaggedSum(K_nodes, ext, m)
    for b in range(m + 1, L + 1, m):
        n = min(m, L + 1 - b)  # the rows of this block
        k = min(n, max(0, M + 1 - b))  # the growing ones lead it
        val = ext[b : b + n]
        val[:] = lagged(b)[:n]
        val -= 0.5 * K_nodes[m] * ext[b - m : b - m + n]
        val[:k] += 0.5 * K_nodes[b : b + k] * ext[0]
        val[k:] -= 0.5 * K_nodes[M] * ext[b + k - M : b + n - M]
        val *= h
        val[:k] += -delta * (mean_at(np.arange(b, b + k) * h) - s_at_U)
        val[k:] += 0.5 * stub * (
            K_nodes[M] * ext[b + k - M : b + n - M]
            + K_end * linear_at(ext, np.arange(b + k, b + n) - U / h)
        )

    top = ext.max()
    bot = ext.min()
    if top > 1.0 + 1e-8 or bot < -delta - 1e-8:
        raise RuntimeError(
            f"extension escaped [-delta, 1]: range [{bot}, {top}]"
        )

    domain_end = U + L * h
    profile = PiecewiseFunction(
        breakpoints=(0.0, 1.0, U),
        segments=(
            ConstantSegment(1.0),
            ConstantSegment(-delta),
            SampledSegment(start=U, h=h, samples=ext),
        ),
        domain_end=domain_end,
    )
    return ExtendedChi(
        delta=delta, U=U, h=h, t_max=domain_end, samples=ext, profile=profile
    )


def _renewal_kernel(delta: float):
    """The first zero U of delta, the pre-cutoff mean s as a cubic
    interpolant, and the renewal kernel k(v) = (1+delta) s(v-1) / v.

    The mean is exact on [0, 2] and marched to ~1e-10 beyond, far below
    the O(h^2) renewal quadrature.  It reads as mean_grid(delta, U) does,
    off find_U's march on a marched drift, so U and s come from one march.
    """
    U, grid = _zero_and_mean_grid(delta)
    mean_at = grid.value_cubic

    def kernel(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return (1.0 + delta) * mean_at(v - 1.0) / v

    return U, mean_at, kernel


def kernel_mass(delta: float) -> float:
    """Direct quadrature of the renewal kernel over [1, U].

    Independent of the antiderivative identity used by extend_chi; the
    result should equal 1 - s(U), i.e. 1 up to the zero-location error.
    """
    U, _, kernel = _renewal_kernel(float(delta))
    cuts = [float(j) for j in range(2, int(math.floor(U)) + 1)]
    return integrate_callable(kernel, 1.0, U, tol=1e-11, breakpoints=cuts).value


def verify_sigma_vanishes(chi: ExtendedChi, u_max: float) -> float:
    """Max |mean| on grid nodes in [U, u_max] when driven by the profile.

    Runs the integral-equation solver against the extended profile; the
    construction promises the mean is identically zero past U, so the
    returned number is the end-to-end defect of the whole pipeline.
    """
    if not chi.U < u_max <= chi.t_max + 1e-9:
        raise ValueError(f"u_max must lie in (U, t_max] = ({chi.U}, {chi.t_max}], got {u_max}")
    sol = solve_volterra(chi.profile, u_max)
    mask = np.arange(len(sol.values)) * sol.h >= chi.U - 1e-9
    return float(np.max(np.abs(sol.values[mask])))
