"""First zeros, the delta <-> U inversion, and the two summary tables
against the golden CSVs."""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extremal_means.extremal as extremal
from extremal_means.extremal import (
    CLOSED_FORM_DELTA,
    U_CAP,
    RootNotFoundError,
    compute_I,
    delta_for_U,
    find_U,
    gamma_odd_order,
    locate_first_zero,
    mean_grid,
    table_by_first_zero,
    table_by_order,
)
from extremal_means.grid import SolutionGrid
from extremal_means.piecewise import bisect, integrate_callable
from extremal_means.sigma import sigma_closed, sigma_dde, sigma_dde_to_first_zero

DATA = Path(__file__).resolve().parents[1] / "src" / "extremal_means" / "data"


def read_golden(name: str) -> list[dict[str, str]]:
    with open(DATA / name, newline="") as fh:
        return list(csv.DictReader(fh))


def test_find_U_closed_branch():
    # for strong drift the zero solves (1+delta)*log U = 1
    assert abs(find_U(1.0) - math.sqrt(math.e)) < 1e-12
    assert abs(find_U(0.6) - math.exp(1.0 / 1.6)) < 1e-12
    # seam between closed form and bisection
    d = CLOSED_FORM_DELTA
    assert abs(find_U(d) - 2.0) < 1e-10
    assert abs(find_U(d) - find_U(d, use_closed_form=False)) < 1e-10


def test_find_U_value_is_a_zero():
    for delta in (0.08, 0.2, 0.5):
        U = find_U(delta)
        if U <= 3.0:
            assert abs(sigma_closed(delta, U)) < 1e-10
        assert sigma_closed(delta, min(U, 3.0) - 0.05) > 0.0


def test_find_U_rejects_bad_delta_and_weak_drift():
    with pytest.raises(ValueError):
        find_U(0.0)
    with pytest.raises(ValueError):
        find_U(1.5)
    # super-exponential decay keeps zeros small: even delta = 1e-6 has
    # its zero near 7.3; only absurdly weak drift passes the cap
    assert 7.0 < find_U(1e-6) < 7.7
    with pytest.raises(RootNotFoundError):
        find_U(1e-14)


def test_delta_for_U_round_trip():
    for delta in (0.08, 0.2, 0.5, 1.0):
        assert abs(delta_for_U(find_U(delta)) - delta) < 1e-8


def test_delta_for_U_domain():
    with pytest.raises(ValueError):
        delta_for_U(1.0)
    with pytest.raises(ValueError):
        delta_for_U(12.5)
    # u = 12 is supported and tiny
    assert 0.0 < delta_for_U(12.0) < 0.01


@settings(max_examples=20, deadline=None)
@given(st.floats(1.6487212707001282, 5.0))  # full drift pins u = sqrt(e)
def test_delta_for_U_inverts_find_U(u):
    d = delta_for_U(u)
    assert 0.0 < d <= 1.0
    assert abs(find_U(d) - u) < 1e-7


@pytest.mark.parametrize("delta", [0.03, 1e-3, 1e-6, 1e-12, 1e-14])
def test_find_U_equals_the_march_to_the_cap(delta, monkeypatch):
    # find_U stops marching at the first unit that holds a zero
    try:
        early = find_U(delta)
    except RootNotFoundError:
        early = None
    # sigma_dde takes the same (delta, u_max) and always marches to u_max
    monkeypatch.setattr(extremal, "sigma_dde_to_first_zero", sigma_dde)
    if early is None:
        with pytest.raises(RootNotFoundError):
            find_U(delta)
    else:
        assert early == find_U(delta) == locate_first_zero(sigma_dde(delta, U_CAP))


# the last bisection steps at u = 4.0 put the zero's cell at the top node
# of the march to 4, or just past it
@pytest.mark.parametrize("u", [4.0, 6.5])
def test_delta_for_U_equals_the_search_on_marches_to_the_cap(u, monkeypatch):
    early = delta_for_U(u)
    monkeypatch.setattr(extremal, "sigma_dde_to_first_zero", sigma_dde)
    assert early == delta_for_U(u)


def test_delta_for_U_up_to_2_is_the_log_closed_form():
    for u in np.linspace(math.exp(0.5), 2.0, 1001)[1:]:
        u = float(u)
        assert delta_for_U(u) == 1.0 / math.log(u) - 1.0


def test_delta_for_U_up_to_3_is_the_root_of_the_closed_mean():
    for u in np.linspace(2.0, 3.0, 101)[1:]:
        d = delta_for_U(float(u))
        assert abs(sigma_closed(d, float(u))) <= 1e-15
        assert abs(find_U(d) - u) <= 1e-13


# first zeros in (1, 2], (2, 3] and (3, 12]
@pytest.mark.parametrize("delta", [0.5, 0.2, 0.03, 1e-6])
def test_mean_grid_reads_the_march_to_the_cap(delta):
    U = find_U(delta)
    us = np.linspace(0.0, U, 4001)
    assert np.array_equal(
        mean_grid(delta, U).value_cubic(us), sigma_dde(delta, U_CAP).value_cubic(us)
    )


def test_delta_for_U_past_3_never_recomputes_T3(monkeypatch):
    # find_U tests the [2, 3] regime against DELTA_AT_3, computed once at
    # import, instead of the closed mean at u = 3
    import extremal_means.sigma as sigma

    seen = []
    tail = sigma.closed_tail_integral

    def spy(u):
        seen.append(u)
        return tail(u)

    monkeypatch.setattr(sigma, "closed_tail_integral", spy)
    delta_for_U(4.0)
    assert seen == []  # no T past 3 at all, T(3) included
    # the spy is live: the closed mean on (2, 3] reads T through it
    sigma.sigma_closed(0.3, 2.5)
    assert seen == [2.5]
    assert extremal.DELTA_AT_3 == delta_for_U(3.0)


@pytest.mark.parametrize(
    "delta",
    [
        CLOSED_FORM_DELTA,
        float(np.nextafter(CLOSED_FORM_DELTA, 0.0)),
        float(np.nextafter(CLOSED_FORM_DELTA, 1.0)),
        0.44,
        0.5,
        1.0,
    ],
)
def test_find_U_flags_agree_at_the_closed_form_seam(delta):
    # the (1, 2] bisection is chosen by delta >= CLOSED_FORM_DELTA, the
    # threshold of the closed branch
    assert abs(find_U(delta) - find_U(delta, use_closed_form=False)) <= 1e-12


def test_find_U_from_DELTA_AT_3_up_stays_at_most_3():
    # what lets delta_for_U answer find_U(d) >= u > 3 with False there
    d3 = extremal.DELTA_AT_3
    deltas = [d3, float(np.nextafter(d3, 1.0))] + [float(d) for d in np.linspace(d3, 1.0, 100)]
    for d in deltas:
        assert find_U(d) <= 3.0
        assert find_U(d, use_closed_form=False) <= 3.0


@pytest.mark.parametrize("u", [3.5, 4.0, 5.0, 8.0])
def test_delta_for_U_past_3_takes_no_T_quadrature(u, monkeypatch):
    import extremal_means.sigma as sigma

    t_calls, zero_calls = [], []
    tail, zero = sigma.closed_tail_integral, extremal.find_U

    def count_t(x):
        t_calls.append(x)
        return tail(x)

    def count_zero(*args, **kwargs):
        zero_calls.append(args)
        return zero(*args, **kwargs)

    monkeypatch.setattr(sigma, "closed_tail_integral", count_t)
    monkeypatch.setattr(extremal, "find_U", count_zero)
    delta_for_U(u)
    assert t_calls == []
    # the bisection still asks find_U below DELTA_AT_3, many times a solve
    assert len(zero_calls) > 1
    assert all(a[0] < extremal.DELTA_AT_3 for a in zero_calls)


# ------------------------------------------------- screened zero searches


def unscreened_closed_bisection(delta: float, lo: float, hi: float) -> float:
    """The bisection of sigma_closed alone, with no screen."""
    return bisect(lambda u: sigma_closed(delta, u) > 0.0, lo, hi, extremal._BISECT_TOL_U)


def test_screened_find_U_is_the_bisection_on_sigma_closed():
    d3 = extremal.DELTA_AT_3
    deltas = np.linspace(d3, CLOSED_FORM_DELTA, 400, endpoint=False).tolist()
    deltas += [math.nextafter(d3, 1.0), math.nextafter(CLOSED_FORM_DELTA, 0.0)]
    for d in deltas:
        U = unscreened_closed_bisection(d, 2.0, 3.0)
        assert find_U(d) == find_U(d, use_closed_form=False) == U, d
    # the (1, 2] bisection, chosen under use_closed_form=False
    for d in [CLOSED_FORM_DELTA, math.nextafter(CLOSED_FORM_DELTA, 1.0), 0.5, 0.8, 1.0]:
        assert find_U(d, use_closed_form=False) == unscreened_closed_bisection(d, 1.0, 2.0), d
    # one ulp below DELTA_AT_3 the march takes over
    below = math.nextafter(d3, 0.0)
    assert find_U(below) == locate_first_zero(sigma_dde_to_first_zero(below, U_CAP))


def unscreened_delta_for_U(u: float) -> float:
    """delta_for_U on (3, U_CAP] with every step asking find_U: bracket
    from above, then bisect on find_U(d) >= u."""

    def zero_at_or_past_u(d: float) -> bool:
        if d >= extremal.DELTA_AT_3:
            return False
        try:
            return find_U(d) >= u
        except RootNotFoundError:
            return True

    lo = 0.03
    while not zero_at_or_past_u(lo):
        lo *= 0.25
        assert lo >= 1e-15
    return bisect(zero_at_or_past_u, lo, CLOSED_FORM_DELTA, extremal._BISECT_TOL_DELTA)


def test_screened_delta_for_U_is_the_bisection_on_find_U(monkeypatch):
    us = np.linspace(3.0, 12.0, 37)[1:].tolist()
    us += [math.nextafter(3.0, 4.0), 4.0, 5.0, 6.5, 8.0, 11.99, 12.0]
    exact = []
    original = extremal.find_U

    def count_exact(*args, **kwargs):
        exact.append(args)
        return original(*args, **kwargs)

    for u in us:
        expected = unscreened_delta_for_U(u)
        monkeypatch.setattr(extremal, "find_U", count_exact)
        exact.clear()
        assert delta_for_U(u) == expected, u
        monkeypatch.setattr(extremal, "find_U", original)
        # the screen leaves find_U a handful of the 40 or more steps
        assert 1 <= len(exact) <= 12, (u, len(exact))


def test_dilog_T_matches_40_digits_on_the_second_band():
    # against T's definition, int_1^{u-1} log(u - t) / t dt, at 40 digits
    mp = pytest.importorskip("mpmath")
    from extremal_means.sigma import closed_tail_dilog

    us = np.linspace(2.0, 3.0, 201)[1:].tolist() + [2.0 + 1e-9, math.nextafter(2.0, 3.0)]
    with mp.workdps(40):
        for u in us:
            x = mp.mpf(u)
            exact = mp.quad(lambda t: mp.log(x - t) / t, [1, x - 1])
            assert abs(closed_tail_dilog(u) - exact) <= 1e-15, u
    assert closed_tail_dilog(2.0) == closed_tail_dilog(1.5) == 0.0


def test_dilog_closed_mean_is_within_a_hundredth_of_the_margin():
    # the screen of find_U's bisection on [2, 3], at its drifts (on (1, 2],
    # where T = 0, the screen is sigma_closed's own expression)
    from extremal_means.sigma import closed_tail_dilog

    rng = np.random.default_rng(5)
    deltas = rng.uniform(extremal.DELTA_AT_3, CLOSED_FORM_DELTA, 1001)
    us = np.concatenate([rng.uniform(2.0, 3.0, 1000), [3.0]])
    worst = 0.0
    for d, u in zip(deltas.tolist(), us.tolist()):
        x = 1.0 + d
        cheap = 1.0 - x * math.log(u) + 0.5 * x * x * closed_tail_dilog(u)
        worst = max(worst, abs(cheap - sigma_closed(d, u)))
    assert worst <= extremal._SCREEN_MARGIN / 100.0
    for d, u in zip(rng.uniform(CLOSED_FORM_DELTA, 1.0, 50).tolist(), rng.uniform(1.0, 2.0, 50)):
        x = 1.0 + d
        assert 1.0 - x * math.log(u) + 0.5 * x * x * closed_tail_dilog(u) == sigma_closed(d, u)


def test_coarse_zero_scaled_by_the_slope_is_within_a_hundredth_of_the_margin():
    # the screen of delta_for_U's bisection, at the drifts it asks about
    worst, compared = 0.0, 0
    for d in np.geomspace(1e-14, extremal.DELTA_AT_3, 300, endpoint=False).tolist():
        grid = sigma_dde_to_first_zero(d, U_CAP, extremal._SCREEN_STEP)
        coarse = locate_first_zero(grid)
        try:
            U = find_U(d)
        except RootNotFoundError:
            assert coarse is None, d
            continue
        assert coarse is not None, d
        slope = (1.0 + d) * grid.value_cubic(coarse - 1.0) / coarse
        worst = max(worst, abs(coarse - U) * slope)
        compared += 1
    assert compared > 250
    assert worst <= extremal._SCREEN_MARGIN / 100.0


def test_both_zero_searches_march_through_sigma_dde_to_first_zero(monkeypatch):
    # find_U marches at the solver's step, delta_for_U's screen at
    # _SCREEN_STEP; both read the one stopped march
    from extremal_means import sigma

    steps = []

    def counted(delta, u_max, h=sigma._DDE_STEP):
        steps.append(h)
        return sigma.sigma_dde_to_first_zero(delta, u_max, h)

    monkeypatch.setattr(extremal, "sigma_dde_to_first_zero", counted)
    delta_for_U(6.5)
    assert set(steps) == {sigma._DDE_STEP, extremal._SCREEN_STEP}


def test_delta_for_U_without_a_bracket_raises(monkeypatch):
    # every march reads drift 0.3, whose zero (about 2.18) lies below any
    # u past 3, so each screen step says the drift is too strong
    real = sigma_dde_to_first_zero
    monkeypatch.setattr(
        extremal, "sigma_dde_to_first_zero", lambda d, u_max, *h: real(0.3, u_max, *h)
    )
    with pytest.raises(RootNotFoundError, match=r"^could not bracket delta for u = 6.5$"):
        delta_for_U(6.5)


def test_locate_first_zero_on_a_node_that_is_exactly_zero():
    values = np.concatenate([np.ones(11), [0.8, 0.6, 0.4, 0.2, 0.0, -0.2]])
    assert locate_first_zero(SolutionGrid(h=0.1, values=values)) == 1.5


def test_compute_I_second_band_mpmath():
    """compute_I on [2, 3] against a 30-digit value at the same float U.

    The reference integrates sigma = 1 - (1+d) log u + (1+d)^2 int_2^u
    log(t-1)/t dt with the inner integral swapped out, not the delay
    equation's integral identity that compute_I sums.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for delta in (0.1, 0.2, 0.3):
            U = find_U(delta)
            d, u = mp.mpf(delta), mp.mpf(U)

            def s1(t):
                return 1 - (1 + d) * mp.log(t)

            band3 = mp.quad(s1, [2, u]) + (1 + d) ** 2 * mp.quad(
                lambda t: (u - t) * mp.log(t - 1) / t, [2, u]
            )
            exact = (1 + mp.quad(s1, [1, 2]) + band3) / u
            assert abs(compute_I(delta, U) - exact) <= 1e-13, delta


def series_mean_50_digits(delta: float, U: float, terms: int = 90):
    """(1/U) int_0^U sigma at 50 digits from per-unit power series.

    Unit [k, k+1] holds sigma(k + 1/2 + z) = sum a_n z^n.  Unit [1, 2] is
    the series of 1 - x log(3/2 + z), x = 1 + delta; past it the delay
    equation gives c(n+1)a_{n+1} + n a_n = -x b_n from the previous unit's
    b, and a_0 comes from continuity at u = k.  Each polynomial is
    integrated exactly up to the float U.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        x, u, half = 1 + mp.mpf(delta), mp.mpf(U), mp.mpf(1) / 2
        a = [1 - x * mp.log(3 * half)]
        a += [x * (-1) ** n * (mp.mpf(2) / 3) ** n / n for n in range(1, terms)]
        total, k = mp.mpf(1), 1
        while True:
            top = min(u - (k + half), half)
            powers = [(top ** (n + 1) - (-half) ** (n + 1)) / (n + 1) for n in range(terms)]
            total += mp.fdot(a, powers)
            if u <= k + 1:
                return total / u
            k += 1
            b, a = a, [mp.mpf(0)] * terms
            for n in range(terms - 1):
                a[n + 1] = -(x * b[n] + n * a[n]) / ((k + half) * (n + 1))
            a[0] = mp.polyval(b[::-1], half) - mp.polyval(a[::-1], -half)


@pytest.mark.parametrize(
    "delta", [1.0 / (k - 1) for k in (18, 19, 24, 31, 40, 53, 64)] + [0.01, 1e-3, 1e-5]
)
def test_compute_I_past_3_matches_the_50_digit_series(delta):
    U = find_U(delta)
    assert U > 3.0
    assert abs(compute_I(delta, U) - series_mean_50_digits(delta, U)) <= 1e-13


@pytest.mark.parametrize(
    "delta, most", [(1.0, 0), (0.5, 0), (0.3, 1), (0.1, 1), (0.03, 1), (1e-5, 1)]
)
def test_compute_I_takes_at_most_one_quadrature(delta, most, monkeypatch):
    # the only one is T at the point of U - j that falls in (2, 3]
    U = find_U(delta)
    calls = []
    original = integrate_callable

    def spy(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("extremal_means") and vars(mod).get("integrate_callable") is original:
            monkeypatch.setattr(mod, "integrate_callable", spy)
    compute_I(delta, U)
    assert len(calls) <= most, calls


def test_compute_I_closed_case():
    # delta = 1: U = sqrt(e), and the mean integrates the two closed
    # branches; compare against direct quadrature
    U = find_U(1.0)
    head = 1.0  # integral of 1 over [0,1]
    tail = integrate_callable(lambda x: 1.0 - 2.0 * np.log(x), 1.0, U, tol=1e-13).value
    assert abs(compute_I(1.0, U=U) - (head + tail) / U) < 1e-10
    # frozen: equals 2 - 2/sqrt(e)
    assert abs(compute_I(1.0, U=U) - (2.0 - 2.0 / math.sqrt(math.e))) < 1e-10


def test_table_by_order_rows_are_find_U_then_compute_I():
    # the rows past k = 17 read I off find_U's march; compute_I marches its
    # own mean_grid, and the two give the same doubles on [0, U]
    for row in table_by_order(64):
        d = 1.0 / (row.key - 1)
        U = find_U(d)
        assert (row.delta, row.U, row.I) == (d, U, compute_I(d, U=U))


def count_marches(monkeypatch) -> dict[str, int]:
    """Count sigma_dde (mean_grid) and first-zero marches made through extremal."""
    counts = {"sigma_dde": 0, "sigma_dde_to_first_zero": 0}
    for name in counts:
        original = getattr(extremal, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(extremal, name, counted)
    return counts


def test_marched_drifts_march_the_mean_once(monkeypatch):
    from extremal_means.chi_renewal import extend_chi
    from extremal_means.oracle import tracking_rows

    counts = count_marches(monkeypatch)
    table_by_order(40)
    # k = 18..40 are marched; their I reads the same grid
    assert counts == {"sigma_dde": 0, "sigma_dde_to_first_zero": 23}
    counts.update(sigma_dde=0, sigma_dde_to_first_zero=0)
    extend_chi(0.05, h=1e-3)
    assert counts == {"sigma_dde": 0, "sigma_dde_to_first_zero": 1}
    counts.update(sigma_dde=0, sigma_dde_to_first_zero=0)
    tracking_rows(np.ones(1001), 10.0, 0.05, [1.5, 2.5, 3.0])
    assert counts == {"sigma_dde": 0, "sigma_dde_to_first_zero": 1}


@pytest.mark.parametrize("delta", [1.0, 0.5, 0.2, 0.05, 1.0 / 39, 1e-6])
def test_zero_and_mean_grid_is_find_U_and_mean_grid(delta):
    U, grid = extremal._zero_and_mean_grid(delta)
    assert U == find_U(delta)
    expected = mean_grid(delta, U)
    assert grid.u_max == expected.u_max
    assert np.array_equal(grid.values, expected.values)


@pytest.mark.parametrize(
    "delta, U",
    [
        (0.007973717171114838, 3.9999999999999534),
        (0.0007669538376281483, 4.999999999999954),
        (5.380943409749595e-05, 5.99999999999986),
    ],
)
def test_march_a_unit_short_of_mean_grid_reads_its_values(delta, U, monkeypatch):
    # U just below a whole number n: find_U's march ends on n, mean_grid
    # goes on to n + 1, and every reader gets mean_grid's doubles
    from extremal_means import chi_renewal
    from extremal_means.chi_renewal import extend_chi, kernel_mass

    full = mean_grid(delta, U)
    counts = count_marches(monkeypatch)
    got_U, march = extremal._zero_and_mean_grid(delta)
    assert counts == {"sigma_dde": 0, "sigma_dde_to_first_zero": 1}
    monkeypatch.undo()
    assert got_U == U and march.u_max == math.ceil(U) == full.u_max - 1.0

    assert extremal._mean_to_zero(delta, U, march) == compute_I(delta, U)
    us = [float(u) for u in np.arange(1.0, U, 0.05)] + [U]
    assert [march.value_cubic(u) for u in us] == [full.value_cubic(u) for u in us]
    assert np.array_equal(march.value_cubic(np.array(us)), full.value_cubic(np.array(us)))
    mass, samples = kernel_mass(delta), extend_chi(delta, h=1e-3).samples
    monkeypatch.setattr(chi_renewal, "_zero_and_mean_grid", lambda d: (U, mean_grid(d, U)))
    assert kernel_mass(delta) == mass
    assert np.array_equal(extend_chi(delta, h=1e-3).samples, samples)


def test_march_ending_on_a_whole_number_zero_reads_mean_grid_values(monkeypatch):
    d = 1.0 / 39
    march = extremal._zero_and_march(d)[1]
    u = march.u_max
    # U on a whole number: the march stops there, mean_grid goes one unit on
    expected = compute_I(d, U=u)
    counts = count_marches(monkeypatch)
    assert extremal._mean_to_zero(d, u, march) == expected
    assert counts == {"sigma_dde": 0, "sigma_dde_to_first_zero": 0}


# U rises by about 2e-13 as delta rises by one ulp through DELTA_AT_3: the
# closed-mean bisection above it and the march below it differ by the
# march's own error at U = 3.  Strict, so a fix of the seam shows as XPASS.
@pytest.mark.xfail(strict=True, reason="find_U jumps up across the DELTA_AT_3 seam")
def test_find_U_is_non_increasing_across_the_DELTA_AT_3_seam():
    d = extremal.DELTA_AT_3
    deltas = [d]
    for _ in range(3):
        deltas.insert(0, float(np.nextafter(deltas[0], 0.0)))
        deltas.append(float(np.nextafter(deltas[-1], 1.0)))
    zeros = [find_U(x) for x in deltas]
    assert all(a >= b for a, b in zip(zeros, zeros[1:])), zeros


def test_gamma_odd_order():
    a = 1.0 + math.cos(math.pi / 5.0)
    assert abs(gamma_odd_order(5) - a * (1.0 - math.exp(-1.0 / a))) < 1e-15
    with pytest.raises(ValueError):
        gamma_odd_order(4)
    with pytest.raises(ValueError):
        gamma_odd_order(1)


def test_table_u_matches_golden():
    golden = read_golden("table_u.csv")
    rows = table_by_first_zero()
    assert len(golden) == len(rows) == 15
    for g, row in zip(golden, rows):
        assert abs(float(g["u"]) - row.key) < 1e-7
        assert abs(float(g["delta"]) - row.delta) < 1e-7, f"u={g['u']}"
        assert abs(float(g["I"]) - row.I) < 1e-7, f"u={g['u']}"
        assert row.U == row.key


def test_table_k_structure_vs_golden():
    golden = read_golden("table_k.csv")
    rows = table_by_order()
    assert len(golden) == len(rows) == 14
    for g, row in zip(golden, rows):
        k = int(g["k"])
        assert row.key == k
        assert abs(float(g["delta"]) - row.delta) < 1e-7
        assert abs(float(g["U"]) - row.U) < 1e-7, f"k={k}"
        if k % 2 == 1:
            assert abs(float(g["gamma_Sk"]) - row.gamma_Sk) < 1e-7, f"k={k}"
        else:
            assert g["gamma_Sk"] == "" and row.gamma_Sk is None


def test_table_k_means_match_frozen():
    golden = read_golden("table_k.csv")
    rows = table_by_order()
    assert len(golden) == len(rows) == 14
    for g, row in zip(golden, rows):
        k = int(g["k"])
        assert row.key == k
        assert abs(row.I - float(g["I"])) < 1e-7, f"k={k}"


def test_table_keys_and_monotonicity():
    rows = table_by_first_zero()
    keys = [r.key for r in rows]
    assert abs(keys[0] - math.sqrt(math.e)) < 1e-12
    assert keys[1:] == [round(1.7 + 0.1 * j, 1) for j in range(14)]
    deltas = [r.delta for r in rows]
    means = [r.I for r in rows]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    assert all(a > b for a, b in zip(means, means[1:]))


def test_table_by_order_validation():
    with pytest.raises(ValueError):
        table_by_order(3)
    with pytest.raises(ValueError):
        table_by_order(65)
    with pytest.raises(ValueError):
        table_by_order(17.0)
