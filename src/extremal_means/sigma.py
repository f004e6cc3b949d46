"""Solutions of the mean-value integral equation u*s(u) = int_0^u chi(t) s(u-t) dt.

Three independent routes to the same object:

* solve_volterra: forward second-kind trapezoid solver for arbitrary
  piecewise chi profiles (chi = 1 on [0,1), values in [-1,1]).
* sigma_closed / sigma_dde: the one-parameter step profile (1, then
  -delta) admits closed forms through u = 3 and a conservative delay
  equation d/du[u*s] = s(u) - (1+delta)*s(u-1) beyond, marched in full
  or, by sigma_dde_to_first_zero, up to the first unit holding a zero.
  The [2, 3] term T(u) of the closed form is a quadrature
  (closed_tail_integral); closed_tail_dilog gives the same T by the
  dilogarithm, 7e-14 from it, and only screens extremal's zero searches,
  so no printed number reads it.
* series_first_term: T_1(u), the delta-free factor of the first-order
  expansion rho - delta*T_1 around the delta = 0 solution, used as a
  cross-check only.

sigma_dde and the series describe the profile that keeps weight
-delta for ALL t > 1 (no cutoff).  Its first zero U, the cutoff profile
chi_delta that switches to 0 there, and the mean up to U live in
extremal, one layer up; this module sits on grid, piecewise and dickman
only.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from .dickman import U_MAX, rho
from .grid import SolutionGrid, _check_horizon, integrate_delay_equation
from .piecewise import ConstantSegment, PiecewiseFunction, integrate_callable, linear_at

__all__ = [
    "solve_volterra",
    "closed_tail_integral",
    "closed_tail_dilog",
    "sigma_closed",
    "sigma_dde",
    "sigma_dde_to_first_zero",
    "series_first_term",
]


def closed_tail_integral(u: float) -> float:
    """T(u) = integral_1^{u-1} log(u-t)/t dt, the second-band term of
    sigma_closed; 0 for u <= 2, where the interval is empty."""
    if not -math.inf < u < math.inf:
        raise ValueError(f"u must be finite, got {u}")
    if u <= 2.0:
        return 0.0
    return integrate_callable(lambda t: np.log(u - t) / t, 1.0, u - 1.0, tol=1e-12).value


# B_n / (n + 1)! for n = 2, 4, ..., 14: the odd terms of the Bernoulli series
# Li2(x) = z - z^2/4 + sum_n B_n z^(n+1) / (n+1)!, z = -log(1 - x)
_LI2_ODD = (
    0.027777777777777776,
    -0.0002777777777777778,
    4.72411186696901e-06,
    -9.185773074661964e-08,
    1.8978869988971e-09,
    -4.0647616451442256e-11,
    8.921691020456452e-13,
)


def closed_tail_dilog(u: float) -> float:
    """T(u) of closed_tail_integral by the dilogarithm (Lewin 1981):
    log^2 u - pi^2/6 + 2 Li2(1/u), 0 for u <= 2.

    Li2(1/u) is its Bernoulli series in z = log(u/(u-1)), nine terms; on
    (2, 3] z <= log 2 and the first term left out is below 5e-17.  There
    it lies within 1e-15 of 40-digit values, the quadrature within 7e-14.
    extremal's zero searches screen with it; every printed T is the
    quadrature's.
    """
    if not -math.inf < u < math.inf:
        raise ValueError(f"u must be finite, got {u}")
    if u <= 2.0:
        return 0.0
    z = math.log(u / (u - 1.0))
    w = z * z
    odd = 0.0
    for c in reversed(_LI2_ODD):
        odd = c + w * odd
    li2 = z - 0.25 * w + z * w * odd
    log_u = math.log(u)
    return log_u * log_u - math.pi**2 / 6.0 + 2.0 * li2


def sigma_closed(delta: float, u: float) -> float:
    """Step-profile solution by closed form, valid for u in [0, 3].

    1 on [0,1]; 1-(1+delta)*log u on [1,2]; one extra quadrature term,
    (1+delta)^2 T(u) / 2, on [2,3].  This is the no-cutoff branch: it
    equals the true solution of the cutoff profile only up to the first
    zero U.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    if not 0.0 <= u <= 3.0 + 1e-12:
        raise ValueError(f"u must lie in [0, 3], where the closed forms hold, got {u}")
    if u <= 1.0:
        return 1.0
    x = 1.0 + delta
    return float(1.0 - x * math.log(u) + 0.5 * x**2 * closed_tail_integral(u))


# ---------------------------------------------------------------------------
# general Volterra solver


def _cell_values(chi: PiecewiseFunction, n_cells: int, h: float):
    """One-sided chi values per cell plus split-cell records for off-grid jumps.

    L[k], R[k] are the values at the cell's endpoints taken from the
    segment that owns the cell interior, so grid-aligned jumps are
    handled exactly.  A breakpoint strictly inside cell k0 zeroes that
    cell's weights; the returned record carries both one-sided values so
    the stepper can integrate the two sub-cells exactly.
    """
    t_left = np.arange(n_cells) * h
    # a segment owns the cells whose midpoints lie in its piece, one run each
    cuts = [0, *np.searchsorted(t_left + 0.5 * h, chi.breakpoints[1:]), n_cells]
    L = np.empty(n_cells)
    R = np.empty(n_cells)
    m = round(1.0 / h)
    for seg, lo, hi in zip(chi.segments, cuts[:-1], cuts[1:]):
        for a in range(lo, hi, m):  # a unit of cells at a time: small temporaries
            z = min(a + m, hi)
            L[a:z] = seg.values(t_left[a:z])
            R[a:z] = seg.values(t_left[a:z] + h)
    records = []
    for i, bp in enumerate(chi.breakpoints):
        if i == 0:
            continue
        pos = bp / h
        if abs(pos - round(pos)) < 1e-9:
            continue  # grid-aligned jump already captured by one-sided cells
        k0 = int(math.floor(pos))
        if k0 >= n_cells:
            continue
        if bp <= 1.0:
            raise ValueError("off-grid breakpoints below 1 are not supported")
        left_seg = chi.segments[i - 1]
        right_seg = chi.segments[i]
        rec = {
            "k0": k0,
            "bp": bp,
            "left_at_node": float(left_seg.values(np.array([k0 * h]))[0]),
            "left_at_bp": float(left_seg.values(np.array([bp]))[0]),
            "right_at_bp": float(right_seg.values(np.array([bp]))[0]),
            "right_at_node": float(right_seg.values(np.array([(k0 + 1) * h]))[0]),
        }
        L[k0] = 0.0
        R[k0] = 0.0
        records.append(rec)
    ks = [r["k0"] for r in records]
    if len(set(ks)) != len(ks):
        raise ValueError("two off-grid breakpoints share one grid cell; reduce h")
    return L, R, records


def _smooth_length(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, for n >= 1: an FFT length with no prime
    factor above 5, 2000 for n = 1999 where a power of two would be 2048
    and 20000 for n = 19999 where it would be 32768."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:  # p = 3^b 5^c, times the least power of two reaching n
            best = min(best, p << (-(-n // p) - 1).bit_length())
            p *= 3
        p5 *= 5
    return best


class LaggedSum:
    """The lagged sums of one march on the weights w and the history x, m
    nodes per unit, as a window sliding over whole blocks: called as (b) for
    b = m + 1, 2m + 1, ... in turn, it returns sum_{i=1}^{b-1} w[n-i] x[i]
    for the m rows n in [b, b + m).  The caller cuts the last block to the
    rows it keeps; a block's sums do not depend on that cut.

    The history comes in chunks [c, c + m) whose FFT products all land on
    output slots [m - 1, 2m - 1), so every transform has one length,
    nfft = _smooth_length(2m - 1): it holds the longest weight segment and
    keeps those slots clear of the circular wrap.  Each call transforms the
    chunk that has just become final, x[b - m : b], into a window of the
    J = ceil((len(w) - 1) / m) latest chunks: a chunk t blocks back (lag t)
    meets the weight segment w[(t - 1)m + 1 : (t + 1)m], and past lag J that
    segment is empty.  The lag-t weight spectrum is taken the first time
    the window holds t chunks and kept for the rest of the march, so window
    and weight list each hold at most J spectra of nfft/2 + 1 complex
    numbers, however long the march runs.  The product is formed as
    rfft(chunk) * W and the chunks summed oldest first, so every block has
    the bits of a per-block transform.
    """

    def __init__(self, w: np.ndarray, x: np.ndarray, m: int):
        self.w = w
        self.x = x
        self.m = m
        self.nfft = _smooth_length(2 * m - 1)
        self._window: deque[np.ndarray] = deque(maxlen=-(-(len(w) - 1) // m))
        self._weights: list[np.ndarray] = []

    def __call__(self, b: int) -> np.ndarray:
        m, nfft = self.m, self.nfft
        # taken before the chunk's transform: a forked march then faults in
        # fewer fresh pages (3,968 against 4,853 for extend_chi(0.3, h=5e-5))
        spec = np.zeros(nfft // 2 + 1, dtype=complex)
        self._window.append(np.fft.rfft(self.x[b - m : b], nfft))
        t = len(self._window)
        if t > len(self._weights):
            self._weights.append(np.fft.rfft(self.w[(t - 1) * m + 1 : (t + 1) * m], nfft))
        for chunk, W in zip(self._window, reversed(self._weights)):
            spec += chunk * W
        return np.fft.irfft(spec, nfft)[m - 1 : 2 * m - 1]


def _volterra_values(chi: PiecewiseFunction, m: int, n_total: int, h: float) -> np.ndarray:
    """Trapezoid nodes of u*s(u) = int_0^u chi(t) s(u-t) dt, one unit block at a time.

    Node n solves (u_n - h/2) s_n = sum_{j=1}^{n-1} w_j s_{n-j} + (h/2) R[n-1]
    + split-cell terms, with w_j = (h/2)(L[j] + R[j-1]).  chi = 1 on [0, 1)
    makes w_j = h for 1 <= j < m, so the difference of two consecutive rows
    telescopes to s_n = s_{n-1} + g_n / (u_n - h/2), where g_n collects the
    weight differences dw_j = w_j - w_{j-1} (j >= m), the half-tail and the
    split-cell records.  Those read s only at indices <= n - m, so a block
    of m nodes needs only earlier blocks: g comes from FFT convolutions of
    the history (one LaggedSum per leg, cut to the rows of a short last
    block, whose window and weight list each hold at most
    J = ceil((n - 1) / m) spectra of nfft/2 + 1 complex numbers, nfft the
    least 5-smooth length >= 2m - 1), and the block from one cumulative sum.
    """
    L, R, records = _cell_values(chi, n_total, h)
    if not (np.max(np.abs(L)) <= 1.0 + 1e-9 and np.max(np.abs(R)) <= 1.0 + 1e-9):  # NaN fails
        raise ValueError("chi must stay in [-1, 1]")
    denom_shift = 0.5 * h * L[0]
    L[m - 1 :] += R[m - 2 : -1]  # L[j] + R[j-1] in place; L is not read again
    dw = np.zeros(n_total)  # dw[j] multiplies sigma_{n-j}; zero for j < m
    dw[m:] = np.diff(0.5 * h * L[m - 1 :])
    d_tail = np.diff(0.5 * h * R)  # d_tail[n - 2]: half-tail of row n minus row n-1
    del L, R  # the march holds only the differences
    sigma = np.empty(n_total + 1)
    sigma[: m + 1] = 1.0
    lagged = LaggedSum(dw, sigma, m)
    for b in range(m + 1, n_total + 1, m):
        e = min(b + m, n_total + 1)
        g = lagged(b)[: e - b]
        g += d_tail[b - 2 : e - 2]
        ns = np.arange(b - 1, e)
        for rec in records:
            g += np.diff(_split_cell_terms(rec, sigma, ns, h))
        sigma[b:e] = sigma[b - 1] + np.cumsum(g / (ns[1:] * h - denom_shift))
    return sigma


def _split_cell_terms(rec: dict, sigma: np.ndarray, ns: np.ndarray, h: float) -> np.ndarray:
    """Exact two-sub-cell integral over one off-grid breakpoint for rows ns
    (zero for rows that do not reach its cell yet)."""
    k0, bp = rec["k0"], rec["bp"]
    out = np.zeros(len(ns))
    live = ns > k0
    n = ns[live]
    s_bp = linear_at(sigma, (n * h - bp) / h)  # sigma at the interior breakpoint
    ha = bp - k0 * h
    hb = (k0 + 1) * h - bp
    out[live] = 0.5 * ha * (rec["left_at_node"] * sigma[n - k0] + rec["left_at_bp"] * s_bp)
    out[live] += 0.5 * hb * (rec["right_at_bp"] * s_bp + rec["right_at_node"] * sigma[n - k0 - 1])
    return out


def solve_volterra(
    chi: PiecewiseFunction,
    u_max: float,
    h: float = 1e-4,
    richardson: bool = False,
) -> SolutionGrid:
    """Forward trapezoid solve of u*s(u) = int_0^u chi(t) s(u-t) dt.

    The diagonal (t -> 0 end, where chi = 1) is moved to the left-hand
    side, making the marching explicit.  Off-grid jump points of chi get
    exact split-cell treatment, so the discrete residual stays O(h^2)
    even for cutoff profiles.  The grid ends on sigma_dde's last node, the
    first at or past u_max; the Richardson leg runs twice as many at h/2.
    """
    if not 1.0 <= u_max < math.inf:
        raise ValueError(f"u_max must be finite and >= 1, got {u_max}")
    m, n = _check_horizon(u_max, h)
    if h > 1e-3:
        raise ValueError(f"h must be at most 1e-3, got {h}")
    if chi.domain_end < u_max:
        raise ValueError(f"u_max must be at most chi's domain end {chi.domain_end}, got {u_max}")
    first = chi.segments[0]
    no_jump_below_one = len(chi.breakpoints) == 1 or chi.breakpoints[1] >= 1.0
    if not (isinstance(first, ConstantSegment) and first.value == 1.0 and no_jump_below_one):
        raise ValueError("chi must be identically 1 on [0, 1)")
    values = _volterra_values(chi, m, n, h)
    if richardson:
        fine = _volterra_values(chi, 2 * m, 2 * n, h / 2.0)
        values = (4.0 * fine[::2] - values) / 3.0
        values[: m + 1] = 1.0
    return SolutionGrid(h=h, values=values)


# ---------------------------------------------------------------------------
# the one-parameter step profile


_DDE_STEP = 1e-4  # the default step of sigma_dde and sigma_dde_to_first_zero


def _check_step_profile(delta: float, u_max: float) -> None:
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    if not 2.0 <= u_max < math.inf:
        raise ValueError(f"u_max must be finite and >= 2, got {u_max}")


@lru_cache(maxsize=4)
def _log_band(m: int, h: float) -> np.ndarray:
    """log u at the nodes u = (m + 1) h, ..., 2 m h of (1, 2], read-only.

    It does not depend on the rate, so every march at step h shares it.
    """
    band = np.log(np.arange(m + 1, 2 * m + 1) * h)
    band.flags.writeable = False
    return band


def _seed_step_profile(values: np.ndarray, m: int, h: float, rate: float) -> None:
    """Write the closed form on [0, 2]: 1 on [0, 1], 1 - rate*log u on [1, 2].

    log u comes from the cached band of step h (np.log works element by
    element, so a prefix of the band is the log of the shorter range) and
    1 - rate*log u is formed in place by the same two operations.
    """
    top = min(2 * m, len(values) - 1)
    values[: m + 1] = 1.0
    seg = values[m + 1 : top + 1]
    np.multiply(_log_band(m, h)[: max(top - m, 0)], rate, out=seg)
    np.subtract(1.0, seg, out=seg)


def _march_step_profile(
    rate: float, m: int, n: int, h: float, richardson: bool
) -> Iterator[tuple[int, np.ndarray]]:
    """March d/du[u*s] = s(u) - rate*s(u-1), s = 1 on [0, 1], to node n
    one unit block at a time.

    Yields (top, values) once the closed form is seeded on [0, 2] and again
    after each block: values[: top + 1] is then final.  The blocks are the
    ones a single call of integrate_delay_equation over [0, n*h] would
    fill, and the Richardson combine (4 fine - coarse) / 3 works node by
    node, so stopping early leaves the start of the full solve, bit for bit.
    On a start that ends on a whole unit, grid._stencil_start picks the
    stencil of the full grid everywhere short of its last node.
    """
    coarse = np.empty(n + 1)
    _seed_step_profile(coarse, m, h, rate)
    top = min(2 * m, n)
    values = coarse
    if richardson:
        fine = np.empty(2 * n + 1)
        _seed_step_profile(fine, 2 * m, h / 2.0, rate)
        # [0, 2] keeps the closed form; extrapolation only helps past u = 2
        values = np.empty(n + 1)
        values[: top + 1] = coarse[: top + 1]
    yield top, values
    while top < n:
        stop = min(top + m, n)
        integrate_delay_equation(coarse[: stop + 1], top + 1, m, h, rate)
        if richardson:
            integrate_delay_equation(fine[: 2 * stop + 1], 2 * top + 1, 2 * m, h / 2.0, rate)
            # (4 fine - coarse) / 3, written in place
            dst = values[top + 1 : stop + 1]
            np.multiply(fine[2 * top + 2 : 2 * stop + 1 : 2], 4.0, out=dst)
            np.subtract(dst, coarse[top + 1 : stop + 1], out=dst)
            np.divide(dst, 3.0, out=dst)
        top = stop
        yield top, values


def sigma_dde(
    delta: float,
    u_max: float,
    h: float = _DDE_STEP,
    richardson: bool = True,
) -> SolutionGrid:
    """Step-profile solution by the conservative delay update.

    Seeds the closed form on [0, 2], then marches
    d/du[u*s] = s(u) - (1+delta)*s(u-1).  With richardson=True a
    half-step solve sharpens the table; the closed-form region keeps its
    seeded values (extrapolation only helps past u = 2).  delta = 0 gives
    the Dickman function on a grid.  extremal.find_U reads the first zero
    off the start of this grid that sigma_dde_to_first_zero marches.
    """
    _check_step_profile(delta, u_max)
    m, n = _check_horizon(u_max, h)
    for _, values in _march_step_profile(1.0 + delta, m, n, h, richardson):
        pass
    return SolutionGrid(h=h, values=values)


def sigma_dde_to_first_zero(delta: float, u_max: float, h: float = _DDE_STEP) -> SolutionGrid:
    """sigma_dde(delta, u_max, h), stopped at the first whole unit that
    holds a node <= 0 past u = 1.

    Only each unit's new nodes are scanned.  The grid ends on that unit,
    or on the full horizon when every node stays positive, and is the
    start of the full grid, node for node.

    The values array is shrunk in place to the grid's nodes, so the grid
    keeps no memory of the full horizon.  Copying the nodes out instead
    made the allocator return the march's pages to the system after each
    row of table_by_order, and the next row faulted them in again.
    """
    _check_step_profile(delta, u_max)
    m, n = _check_horizon(u_max, h)
    march = _march_step_profile(1.0 + delta, m, n, h, True)
    for top, values in march:
        if top == n or np.any(values[top - m + 1 : top + 1] <= 0.0):
            break
    # closing the march drops its views of values, so no view outlives the
    # shrink and skipping numpy's reference check is safe
    march.close()
    values.resize(top + 1, refcheck=False)
    return SolutionGrid(h=h, values=values)


# ---------------------------------------------------------------------------
# series cross-check


def series_first_term(u: float) -> float:
    """T_1(u) = int_1^u rho(u-t) dt/t for u > 1 (0 for u <= 1): the
    no-cutoff mean is rho(u) - delta*T_1(u) + O(delta^2).  It reads rho on
    [0, u - 1], so u may reach rho's table end plus one."""
    if not 0.0 <= u <= U_MAX + 1.0:
        raise ValueError(f"u must be finite and lie in [0, {U_MAX + 1.0}], got {u}")
    if u <= 1.0:
        return 0.0
    kinks = [u - i for i in range(int(math.floor(u)) + 1)]
    fn = lambda ts: np.asarray(rho(np.maximum(u - ts, 0.0))) / ts
    return integrate_callable(fn, 1.0, u, tol=1e-11, breakpoints=kinks).value
