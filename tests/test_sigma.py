"""Drift-profile means: closed forms, the marched and Volterra solvers,
and the series cross-check."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal_means import grid
from extremal_means.chi_renewal import extend_chi, verify_sigma_vanishes
from extremal_means.dickman import rho
from extremal_means.extremal import chi_delta, compute_I, find_U, locate_first_zero
from extremal_means.oracle import random_spec
from extremal_means.piecewise import (
    ConstantSegment,
    PiecewiseFunction,
    SampledSegment,
    bisect,
    integrate_callable,
)
from extremal_means.sigma import (
    LaggedSum,
    _cell_values,
    _log_band,
    _march_step_profile,
    _smooth_length,
    closed_tail_dilog,
    closed_tail_integral,
    sigma_closed,
    sigma_dde,
    sigma_dde_to_first_zero,
    series_first_term,
    solve_volterra,
)

FIVE_DELTAS = (0.05, 0.1, 0.3, 0.5, 1.0)


def closed_reference(delta: float, us: np.ndarray) -> np.ndarray:
    return np.array([sigma_closed(delta, u) for u in us.tolist()])


def test_closed_form_head_and_log_branch():
    for delta in FIVE_DELTAS:
        assert sigma_closed(delta, 0.0) == 1.0
        assert sigma_closed(delta, 1.0) == 1.0
        got = sigma_closed(delta, 1.5)
        assert abs(got - (1.0 - (1.0 + delta) * math.log(1.5))) < 1e-14


def test_closed_third_branch_independent_quadrature():
    # march one explicit step of u*s'(u) = -(1+delta)*s(u-1) from u=2,
    # feeding the exact log branch through the delay
    delta, u = 0.25, 2.6
    tail = integrate_callable(
        lambda t: (1.0 - (1.0 + delta) * np.log(t - 1.0)) / t, 2.0, u, tol=1e-13
    ).value
    expect = (1.0 - (1.0 + delta) * math.log(2.0)) - (1.0 + delta) * tail
    assert abs(sigma_closed(delta, u) - expect) < 1e-11


def test_marched_matches_closed_on_1_3():
    us = np.arange(1.0, 3.0 + 1e-12, 0.01)
    for delta in FIVE_DELTAS:
        sol = sigma_dde(delta, 3.0, richardson=True)
        dev = np.max(np.abs(sol.value_cubic(us) - closed_reference(delta, us)))
        assert dev <= 1e-8, f"delta={delta}: {dev:.2e}"


def test_march_rejects_bad_step_and_span_before_allocating():
    with pytest.raises(ValueError, match="h must divide 1"):
        sigma_dde(0.2, 5.0, h=3e-4)
    with pytest.raises(ValueError, match="u_max must be finite"):
        sigma_dde(0.2, float("nan"))
    # a span ending half a node past the grid keeps both Richardson grids aligned
    sol = sigma_dde(0.2, 3.0 + 1.5 / 1024, h=1 / 1024)
    assert len(sol.values) == 3075


def test_rho_table_is_the_zero_drift_profile():
    for h, richardson in ((2e-3, False), (1e-3, True)):
        sol = sigma_dde(0.0, 10.0, h=h, richardson=richardson)
        assert np.array_equal(sol.values, _reference_step_profile(1.0, 10.0, h, richardson))


def _gathering_stepper(values, start, m, h, rate):
    """The stepper with the delayed values gathered through index arrays."""
    i = start
    while i < len(values):
        stop = min(i + m, len(values))
        idx = np.arange(i, stop)
        c = rate * 0.5 * h * (values[idx - m] + values[idx - m - 1]) / (idx * h - 0.5 * h)
        values[i:stop] = values[i - 1] - np.cumsum(c)
        i = stop


def _textbook_seed(values, m, h, rate):
    """The closed form on [0, 2], with its own np.log over the nodes of (1, 2]."""
    top = min(2 * m, len(values) - 1)
    values[: m + 1] = 1.0
    values[m + 1 : top + 1] = 1.0 - rate * np.log(np.arange(m + 1, top + 1) * h)


def _reference_step_profile(rate, u_max, h, richardson):
    """The step-profile march from the textbook seed, the gathering stepper and
    the Richardson combine written as one expression."""
    m, n = round(1.0 / h), round(u_max / h)
    coarse = np.empty(n + 1)
    _textbook_seed(coarse, m, h, rate)
    if n > 2 * m:
        _gathering_stepper(coarse, 2 * m + 1, m, h, rate)
    if not richardson:
        return coarse
    fine = _reference_step_profile(rate, u_max, h / 2.0, False)
    out = (4.0 * fine[::2] - coarse) / 3.0
    out[: 2 * m + 1] = coarse[: 2 * m + 1]
    return out


@pytest.mark.parametrize("h, u_max", [(1e-3, 7.5), (1e-4, 5.0)])
def test_march_equals_the_gathering_reference(h, u_max):
    # reading the delayed values through slices, stepping each block in
    # place and seeding from the cached log band must not change a bit
    delta = 0.3
    coarse = sigma_dde(delta, u_max, h=h, richardson=False).values
    assert np.array_equal(coarse, _reference_step_profile(1.0 + delta, u_max, h, False))
    # the half step, then Richardson: (4 fine - coarse) / 3, with the
    # closed form kept on [0, 2]
    fine = sigma_dde(delta, u_max, h=h / 2.0, richardson=False).values
    assert np.array_equal(fine, _reference_step_profile(1.0 + delta, u_max, h / 2.0, False))
    sharp = sigma_dde(delta, u_max, h=h).values
    assert np.array_equal(sharp, _reference_step_profile(1.0 + delta, u_max, h, True))


@pytest.mark.parametrize("richardson", [True, False])
@pytest.mark.parametrize("u_max", [0.5, 1.0, 1.5, 2.0, 3.25])
def test_short_horizons_keep_the_textbook_seed(u_max, richardson):
    # below 2 the seed takes a prefix of the cached band, below 1 none of it;
    # sigma_dde asks for u_max >= 2, so the march is driven directly
    for h in (1e-4, 5e-5):
        m, n = grid._check_horizon(u_max, h)
        for _, got in _march_step_profile(1.3, m, n, h, richardson):
            pass
        assert np.array_equal(got, _reference_step_profile(1.3, u_max, h, richardson))


@pytest.mark.parametrize("h", [1e-4, 5e-5])
def test_log_band_is_cached_and_read_only(h):
    m = round(1.0 / h)
    band = _log_band(m, h)
    assert band is _log_band(m, h)
    assert np.array_equal(band, np.log(np.arange(m + 1, 2 * m + 1) * h))
    with pytest.raises(ValueError):
        band[0] = 0.0


def test_stepper_allocates_only_the_block_denominators():
    # three unit blocks at m = 10^4; per-block temporaries (the delayed
    # sum, its scaled copy, an index array, the cumsum) would be 5 * 8m,
    # and a block's denominators kept while the next are built 2 * 8m
    m, delta = 10_000, 0.3
    rate, h = 1.0 + delta, 1.0 / m
    values = np.empty(5 * m + 1)
    values[: 2 * m + 1] = sigma_dde(delta, 2.0, h, False).values
    tracemalloc.start()
    try:
        grid.integrate_delay_equation(values, 2 * m + 1, m, h, rate)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * m
    assert np.array_equal(values, _reference_step_profile(rate, 5.0, h, False))


def test_richardson_sharpens_coarse_march():
    delta, u = 0.3, 2.5
    plain = sigma_dde(delta, 3.0, h=2e-3, richardson=False)
    sharp = sigma_dde(delta, 3.0, h=2e-3, richardson=True)
    truth = sigma_closed(delta, u)
    err_plain = abs(plain.value_cubic(u) - truth)
    err_sharp = abs(sharp.value_cubic(u) - truth)
    assert err_sharp < err_plain / 10.0


@pytest.mark.parametrize("richardson", [True, False])
@pytest.mark.parametrize("delta", [0.01, 0.3])
def test_shorter_march_is_a_prefix_of_the_longer(delta, richardson):
    # find_U stops the march at the first unit that holds a zero; that is
    # exact only while this prefix property holds
    full = sigma_dde(delta, 12.0, richardson=richardson)
    for u1 in (4.0, 7.0):
        short = sigma_dde(delta, u1, richardson=richardson)
        assert np.array_equal(short.values, full.values[: len(short.values)])
        # the cubic stencils differ only at the top node, not inside its cell
        us = np.concatenate([np.linspace(0.0, u1 - 1e-4, 2001), u1 - 1e-4 * np.array([0.5, 1e-6])])
        assert np.array_equal(short.value_cubic(us), full.value_cubic(us))
    if not richardson:
        return  # every stopped march runs the Richardson pass
    # the march to the first non-positive node i ends on i's unit
    m = full.m
    i = m + 1 + int(np.nonzero(full.values[m + 1 :] <= 0.0)[0][0])
    early = sigma_dde_to_first_zero(delta, 12.0)
    assert early.u_max == max(2, math.ceil(i / m))
    assert np.array_equal(early.values, full.values[: len(early.values)])
    # it owns its nodes alone and keeps no 12-unit array alive
    assert early.values.base is None
    # a zero past the horizon, here one off the integers, gets the full grid
    far = sigma_dde_to_first_zero(1e-9, 6.5)
    assert far.u_max == 6.5
    assert np.array_equal(far.values, sigma_dde(1e-9, 6.5).values)


def test_cubic_on_a_horizon_off_the_integers():
    # the partial top unit takes its stencil from its own nodes, so a grid
    # ending at 6.5 reads as the one ending at 7; a top unit of one or two
    # cells borrows nodes from below it
    h = 1e-4
    full = sigma_dde(0.3, 7.0)
    for u_max in (6.5, 6.0 + 2 * h, 6.0 + h):
        grid = sigma_dde(0.3, u_max)
        us = np.linspace(5.9, u_max, 1001)
        inner = us <= u_max - 2 * h
        assert np.array_equal(grid.value_cubic(us[inner]), full.value_cubic(us[inner]))
        assert np.max(np.abs(grid.value_cubic(us) - full.value_cubic(us))) <= 1e-12


def test_grid_ends_on_the_first_node_at_or_past_the_horizon():
    assert sigma_dde(0.3, 2.0).u_max == 2.0
    assert sigma_dde(0.3, 2.00005).u_max == sigma_dde(0.3, 2.0001).u_max == 2.0001
    assert len(sigma_dde(0.3, 2.00005).values) == 20_002


@pytest.mark.parametrize("richardson", [True, False])
def test_scalar_value_cubic_is_the_array_path_bit_for_bit(richardson):
    # the plain-float scalar path shares the array path's stencil helper
    # and weights, so it gives the same double: at cell ends, one ulp either side of each
    # integer seam, the last node, on a horizon off the integers and on
    # top blocks of one and two cells
    h = 1e-4
    rng = np.random.default_rng(11)
    for u_max in (7.0, 6.5, 6.0 + 2 * h, 6.0 + h):
        grid = sigma_dde(0.3, u_max, richardson=richardson)
        n_last = len(grid.values) - 1
        nodes = [0, 1, 2, 3, 9_999, 10_000, 10_001, 10_002, 34_567, n_last - 3, n_last - 2]
        us = [k * h for k in nodes + [n_last - 1, n_last]] + [grid.u_max, -1e-13]
        for j in range(1, int(u_max) + 1):
            us += [math.nextafter(float(j), -math.inf), float(j), math.nextafter(float(j), math.inf)]
        us += [k * h + f * h for k in nodes for f in (0.25, 0.5, 1.0 / 3.0)]
        us += rng.uniform(0.0, u_max, 500).tolist()
        us = [u for u in us if u <= grid.u_max]
        arr = grid.value_cubic(np.array(us))
        for u, a in zip(us, arr.tolist()):
            assert grid.value_cubic(u) == grid.value_cubic(np.float64(u)) == a, u
        assert type(grid.value_cubic(np.array(us[0]))) is float


def test_one_scalar_cubic_over_many_points_is_value_cubic_bit_for_bit():
    # one evaluator keeps each cell's stencil; reused across cells, block
    # seams and the last node it still gives value_cubic's doubles
    h = 1e-4
    rng = np.random.default_rng(12)
    for u_max in (7.0, 6.0 + 2 * h):
        grid = sigma_dde(0.3, u_max)
        at = grid.scalar_cubic()
        us = rng.uniform(0.0, grid.u_max, 2000).tolist() + [grid.u_max, 0.0]
        for j in range(1, int(u_max) + 1):
            us += [math.nextafter(float(j), -math.inf), float(j), math.nextafter(float(j), math.inf)]
        us = [u for u in us if u <= grid.u_max]
        us += us[::-1]  # every cell met again, from the other side
        assert [at(u) for u in us] == grid.value_cubic(np.array(us)).tolist()


def bisect_on_value_cubic(grid):
    """The first zero by bisection on value_cubic itself, in the cell that
    ends at the first non-positive node; the reference for locate_first_zero."""
    neg = np.nonzero(grid.values[grid.m + 1 :] <= 0.0)[0]
    if not neg.size:
        return None
    i = int(neg[0]) + grid.m + 1
    if grid.values[i] == 0.0:
        return i * grid.h
    return bisect(lambda u: grid.value_cubic(u) > 0.0, (i - 1) * grid.h, i * grid.h, 1e-13)


def test_locate_first_zero_equals_the_bisection_on_value_cubic():
    # zeros in (3, 4], read off a march to 4, and in (4, 9.5], off longer ones
    drifts = [1.0 / (k - 1) for k in range(20, 65, 4)] + np.geomspace(1e-9, 0.01, 12).tolist()
    for delta in drifts:
        grid = sigma_dde_to_first_zero(delta, 12.0)
        zero = locate_first_zero(grid)
        assert zero == bisect_on_value_cubic(grid)
        assert zero == find_U(delta) and 3.0 < zero < 9.5


def test_dde_domain_validation():
    with pytest.raises(ValueError):
        sigma_dde(-0.1, 3.0)
    with pytest.raises(ValueError):
        sigma_dde(1.2, 3.0)
    with pytest.raises(ValueError):
        sigma_dde(0.3, 1.5)


def test_locate_zero_fills_solution_fields():
    grid = sigma_dde(0.3, 4.0)
    U = locate_first_zero(grid)
    I = compute_I(0.3, U=U)
    assert U is not None and I is not None
    assert abs(U - find_U(0.3)) < 1e-9
    # mean positive, below 1, and the solution crosses there
    assert 0.0 < I < 1.0
    assert abs(grid.value_cubic(U)) < 1e-9


def test_volterra_matches_closed_up_to_first_zero():
    delta = 0.3
    grid = solve_volterra(chi_delta(delta), 3.0, h=1e-4)
    U = find_U(delta)
    us = np.arange(0.0, 3.0, 0.01)
    us = us[us <= U]
    dev = np.max(np.abs(grid.value_cubic(us) - closed_reference(delta, us)))
    assert dev <= 1e-6


def looped_volterra(chi, n_total, h):
    """The Volterra march over n_total cells with one np.dot over the whole
    history per node, as solve_volterra ran before it filled unit blocks;
    the reference."""
    m = round(1.0 / h)
    L, R, records = _cell_values(chi, n_total, h)
    w = np.empty(n_total)
    w[0] = 0.0
    w[1:] = 0.5 * h * (L[1:] + R[:-1])
    sigma = np.empty(n_total + 1)
    sigma[: m + 1] = 1.0
    srev = np.empty(n_total + 1)
    srev[n_total - m :] = 1.0
    half_tail = 0.5 * h * R
    denom_shift = 0.5 * h * L[0]
    for n in range(m + 1, n_total + 1):
        rhs = float(np.dot(w[1:n], srev[n_total - n + 1 : n_total])) + half_tail[n - 1]
        for rec in records:
            k0 = rec["k0"]
            if k0 > n - 1:
                continue
            bp = rec["bp"]
            pos = (n * h - bp) / h
            i0 = min(int(pos), n - 1)
            frac = pos - i0
            s_bp = sigma[i0] * (1.0 - frac) + sigma[i0 + 1] * frac
            ha = bp - k0 * h
            hb = (k0 + 1) * h - bp
            rhs += 0.5 * ha * (rec["left_at_node"] * sigma[n - k0] + rec["left_at_bp"] * s_bp)
            rhs += 0.5 * hb * (rec["right_at_bp"] * s_bp + rec["right_at_node"] * sigma[n - k0 - 1])
        sigma[n] = rhs / (n * h - denom_shift)
        srev[n_total - n] = sigma[n]
    return sigma


def test_lagged_sum_matches_the_double_loop():
    # m = 5 over 40 history values against 17 weights, one object over the
    # whole blocks from b = m + 1 on, so the later blocks read the chunk and
    # weight spectra the earlier ones kept, and the early chunks of the late
    # blocks, whose lags lie past the end of w, have left the window
    rng = np.random.default_rng(5)
    m, x, w = 5, rng.standard_normal(40), rng.standard_normal(17)
    lagged = LaggedSum(w, x, m)
    for b in range(m + 1, 40, m):
        assert np.max(np.abs(lagged(b) - double_loop(w, x, b, b + m))) <= 1e-13


def double_loop(w, x, b, e):
    """sum_{i=1}^{b-1} w[n-i] x[i] for n in [b, e), term by term."""
    return [sum(w[n - i] * x[i] for i in range(1, b) if n - i < len(w)) for n in range(b, e)]


def test_smooth_length_is_the_least_5_smooth_length_reaching_n():
    def is_5_smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    smooth = [k for k in range(1, 5001) if is_5_smooth(k)]
    for n in range(1, 5001):
        assert _smooth_length(n) == min(k for k in smooth if k >= n)


@pytest.mark.parametrize("m, nfft", [(5, 9), (7, 15), (11, 24), (13, 25), (24, 48)])
def test_lagged_sum_matches_the_double_loop_at_odd_and_smooth_lengths(m, nfft):
    # transforms of odd and of non-power-of-two lengths; w reaches 3 lags
    # past the first, so the window and the weight list each hold at most
    # J = 4 spectra while the late blocks slide past their early chunks
    rng = np.random.default_rng(m)
    x, w = rng.standard_normal(8 * m + 3), rng.standard_normal(3 * m + 2)
    lagged = LaggedSum(w, x, m)
    assert lagged.nfft == nfft
    for b in range(m + 1, len(x) - 1, m):
        assert np.max(np.abs(lagged(b) - double_loop(w, x, b, b + m))) <= 1e-13
        assert len(lagged._window) <= 4 and len(lagged._weights) <= 4
    assert b - 1 - m + 1 >= len(w)  # chunk 1 has left the window


def _two_jump_profile():
    # off-grid jumps at 1.23456 and 2.34567 (cells 1234 and 2345 at h = 1e-3),
    # then a sampled ramp
    ramp = SampledSegment(start=2.34567, h=0.01, samples=np.linspace(0.25, -0.75, 301))
    return PiecewiseFunction(
        breakpoints=(0.0, 1.0, 1.23456, 2.34567),
        segments=(ConstantSegment(1.0), ConstantSegment(-0.5), ConstantSegment(0.75), ramp),
    )


def _profile(case, h):
    if case == "chi_delta":
        return chi_delta(0.3)
    if case == "extended":
        return extend_chi(1.0, h=min(h, 1e-4)).profile
    return _two_jump_profile()


@pytest.mark.parametrize("case", ["chi_delta", "extended", "two_jumps"])
def test_cell_values_read_the_segment_owning_each_cell(case):
    # each cell's one-sided values come from the segment that owns its
    # midpoint (zeroed where an off-grid jump splits the cell), bit for bit
    h, n_cells = 1e-3, 4300
    chi = _profile(case, h)
    L, R, records = _cell_values(chi, n_cells, h)
    t_left = np.arange(n_cells) * h
    owner = np.searchsorted(np.asarray(chi.breakpoints), t_left + 0.5 * h, "right") - 1
    want_L, want_R = np.empty(n_cells), np.empty(n_cells)
    for i, seg in enumerate(chi.segments):
        mask = owner == i
        want_L[mask] = seg.values(t_left[mask])
        want_R[mask] = seg.values(t_left[mask] + h)
    for rec in records:
        want_L[rec["k0"]] = want_R[rec["k0"]] = 0.0
    assert np.array_equal(L, want_L) and np.array_equal(R, want_R)


@pytest.mark.parametrize(
    "case, u_max, h",
    [
        ("chi_delta", 5.5, 1e-3),  # ends on half a block
        ("chi_delta", 3.05, 1e-4),
        ("extended", 3.3, 1e-4),
        ("extended", 4.0, 1e-3),
        ("two_jumps", 4.2505, 1e-3),
    ],
)
def test_blocked_volterra_matches_the_looped_one(case, u_max, h):
    chi = _profile(case, h)
    n = math.ceil(u_max / h - 1e-9)  # the grids' horizon rule; the half step runs 2n
    assert len(_cell_values(chi, n, h)[2]) == (2 if case == "two_jumps" else 1)
    coarse = looped_volterra(chi, n, h)
    got = solve_volterra(chi, u_max, h=h, richardson=False).values
    assert np.max(np.abs(got - coarse)) <= 1e-13
    if h == 1e-3:
        expected = (4.0 * looped_volterra(chi, 2 * n, h / 2.0)[::2] - coarse) / 3.0
        expected[: round(1.0 / h) + 1] = 1.0
        got = solve_volterra(chi, u_max, h=h, richardson=True).values
        assert np.max(np.abs(got - expected)) <= 1e-13


def _steps(*pairs):
    """The step function taking value v from breakpoint b on, for each (b, v)."""
    breakpoints, values = zip(*pairs)
    return PiecewiseFunction(breakpoints, tuple(ConstantSegment(v) for v in values))


@pytest.mark.parametrize(
    "u_max, h",
    [(4.2503, 1e-3), (4.2505, 1e-3), (4.2507, 1e-3), (3.00075, 1e-3), (3.00004, 1e-4)],
)
@pytest.mark.parametrize("richardson", [False, True])
def test_volterra_grid_ends_where_the_march_does(u_max, h, richardson):
    # off the grid both solvers take ceil(u_max / h - 1e-9) steps (the half
    # step twice as many), so the Volterra grid holds u_max, node for node
    # with the march of the same profile
    march = sigma_dde(0.3, u_max, h=h, richardson=richardson)
    cut = solve_volterra(chi_delta(0.3), u_max, h=h, richardson=richardson)
    step = solve_volterra(_steps((0.0, 1.0), (1.0, -0.3)), u_max, h=h, richardson=richardson)
    for got in (cut, step):
        assert len(got.values) == len(march.values) == math.ceil(u_max / h - 1e-9) + 1
        assert got.u_max == march.u_max >= u_max
        assert math.isfinite(got.value_cubic(u_max))
    # the step profile, not the cutoff one, is the march's
    assert np.max(np.abs(step.values - march.values)) <= 1e-7
    assert abs(step.value_cubic(u_max) - march.value_cubic(u_max)) <= 1e-7


def test_tail_term_through_rho():
    # at zero drift the closed mean is rho, so T(u) = 2 (rho(u) - 1 + log u)
    # on [2, 3]: rho's series, the dilogarithm and the quadrature agree
    for u in np.linspace(2.0, 3.0, 202)[1:].tolist():
        t = 2.0 * (rho(u) - 1.0 + math.log(u))
        assert abs(t - closed_tail_dilog(u)) <= 1e-15, u
        assert abs(t - closed_tail_integral(u)) <= 1e-13, u


def test_solutions_compare_by_identity():
    # value equality would compare arrays and raise; == and hash stay usable
    grids = (sigma_dde(0.2, 3.0), sigma_dde(0.2, 3.0))
    extensions = (extend_chi(0.2), extend_chi(0.2))
    profiles = tuple(e.profile for e in extensions)
    specs = (random_spec(3, 50.0, 2000, seed=1), random_spec(3, 50.0, 2000, seed=1))
    for a, b in (grids, extensions, profiles, specs):
        assert (a == a) is True and (a == b) is False
        assert len({a, b}) == 2


def test_vanishing_defect_digits():
    ext = extend_chi(0.2)
    assert f"{verify_sigma_vanishes(ext, 3.0 * ext.U):.4g}" == "8.964e-10"


def test_volterra_rejects_oversized_profile():
    bad = PiecewiseFunction((0.0,), (ConstantSegment(1.5),))
    with pytest.raises(ValueError):
        solve_volterra(bad, 2.0, h=1e-3)
    past_one = PiecewiseFunction((0.0, 1.0), (ConstantSegment(1.0), ConstantSegment(-1.5)))
    with pytest.raises(ValueError, match=r"^chi must stay in \[-1, 1\]$"):
        solve_volterra(past_one, 2.0, h=1e-3)


@pytest.mark.parametrize(
    "chi",
    [
        _steps((0.0, 0.5)),  # not 1 at the origin
        _steps((0.0, 1.0), (0.5, -0.3)),  # a jump below 1
        _steps((0.0, 1.0), (1.0 - 1e-13, -0.3)),  # a jump just below 1
    ],
)
def test_volterra_needs_chi_one_below_one(chi):
    with pytest.raises(ValueError, match=r"^chi must be identically 1 on \[0, 1\)$"):
        solve_volterra(chi, 2.0, h=1e-3)


def test_cell_values_guards_and_skips():
    with pytest.raises(ValueError, match="^off-grid breakpoints below 1 are not supported$"):
        _cell_values(_steps((0.0, 1.0), (0.5005, -0.3)), 2000, 1e-3)
    two_in_one = _steps((0.0, 1.0), (1.0, -0.3), (2.0004, 0.0), (2.0006, -0.1))
    with pytest.raises(ValueError, match="^two off-grid breakpoints share one grid cell"):
        solve_volterra(two_in_one, 3.0, h=1e-3)
    # the cutoff U(0.3) > 2 lies past the last cell of a solve to 2, which
    # then marches the profile with no cutoff, bit for bit
    assert _cell_values(chi_delta(0.3), 2000, 1e-3)[2] == []
    no_cutoff = _steps((0.0, 1.0), (1.0, -0.3))
    assert np.array_equal(
        solve_volterra(chi_delta(0.3), 2.0, h=1e-3).values,
        solve_volterra(no_cutoff, 2.0, h=1e-3).values,
    )


def test_grids_need_the_unit_history():
    values = np.ones(31)
    values[5] = 0.5
    with pytest.raises(ValueError, match=r"^solution must be identically 1 on \[0, 1\]$"):
        grid.SolutionGrid(h=0.1, values=values)
    with pytest.raises(ValueError, match="^need the full history u <= 1 before stepping$"):
        grid.integrate_delay_equation(np.ones(31), 10, 10, 0.1, 1.2)
    with pytest.raises(ValueError, match="^u_max must be finite and >= 0, got nan$"):
        grid._check_horizon(math.nan, 0.1)


def test_chi_delta_window_shape():
    delta = 0.4
    chi = chi_delta(delta)
    U = find_U(delta)
    assert chi.breakpoints == (0.0, 1.0, U) and chi.domain_end == math.inf
    assert [seg.value for seg in chi.segments] == [1.0, -delta, 0.0]
    with pytest.raises(ValueError):
        chi_delta(0.0)
    with pytest.raises(ValueError):
        chi_delta(1.5)


def test_series_truncations():
    # below u = 1 the first-order series rho - delta T1 is the plain density
    assert series_first_term(0.5) == 0.0
    assert rho(0.5) - 0.3 * series_first_term(0.5) == 1.0
    # at u = 2 it has the closed value 1 - (1+delta) log 2: T1(2) = log 2
    got = rho(2.0) - 0.1 * series_first_term(2.0)
    assert abs(got - (1.0 - 1.1 * math.log(2.0))) < 1e-10
    assert abs(got - 0.2375381014) < 1e-9  # frozen
    assert abs(series_first_term(2.0) - math.log(2.0)) < 1e-12
    with pytest.raises(ValueError):
        series_first_term(math.nan)


def test_series_envelope_spot():
    for delta in (0.01, 0.1):
        sol = sigma_dde(delta, 4.0, richardson=True)
        for u in (1.5, 2.5, 3.5):
            dev = abs(sol.value_cubic(u) - (rho(u) - delta * series_first_term(u)))
            assert dev <= delta**2


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 1.0), st.floats(0.0, 2.0))
def test_closed_form_bounded_and_monotone_cells(delta, u):
    v = sigma_closed(delta, u)
    assert v <= 1.0 + 1e-12
    # decreasing past the head for any positive drift
    if u >= 1.0:
        assert sigma_closed(delta, u + 0.05) <= v + 1e-12
