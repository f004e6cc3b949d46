"""Quadrature, root bracketing and piecewise-function substrate."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal_means.piecewise import (
    ConstantSegment,
    PiecewiseFunction,
    QuadratureError,
    QuadratureResult,
    SampledSegment,
    bisect,
    integrate_callable,
    linear_at,
)


def test_integrate_callable_known_integrals():
    r = integrate_callable(np.sin, 0.0, np.pi, tol=1e-12)
    assert abs(r.value - 2.0) < 1e-11
    assert r.evaluations > 0
    r = integrate_callable(lambda x: 1.0 / x, 1.0, np.e, tol=1e-12)
    assert abs(r.value - 1.0) < 1e-11


def test_integrate_callable_breakpoint_kink():
    # |x - 0.5| has a kink; splitting there keeps each half smooth
    fn = lambda x: np.abs(x - 0.5)
    r = integrate_callable(fn, 0.0, 1.0, tol=1e-12, breakpoints=(0.5,))
    assert abs(r.value - 0.25) < 1e-12


def test_integrate_callable_empty_and_invalid_ranges():
    assert integrate_callable(np.sin, 1.0, 1.0).value == 0.0
    with pytest.raises(ValueError):
        integrate_callable(np.sin, 2.0, 1.0)


def test_integrate_callable_nonconvergent_raises():
    # a jump at an off-grid point defeats the halving rule at 1e-14
    fn = lambda x: np.sign(x - 1.0 / 3.0)
    with pytest.raises(QuadratureError):
        integrate_callable(fn, 0.0, 1.0, tol=1e-14)


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(*(st.floats(-3.0, 3.0) for _ in range(4))),
    st.floats(0.1, 2.5),
)
def test_integrate_callable_matches_antiderivative(coeffs, width):
    c0, c1, c2, c3 = coeffs
    fn = lambda x: c0 + c1 * x + c2 * x**2 + c3 * x**3
    F = lambda x: c0 * x + c1 * x**2 / 2 + c2 * x**3 / 3 + c3 * x**4 / 4
    r = integrate_callable(fn, 0.5, 0.5 + width, tol=1e-12)
    scale = max(1.0, abs(r.value))
    assert abs(r.value - (F(0.5 + width) - F(0.5))) < 1e-10 * scale


def _per_level_reference(fn, a, b, tol):
    """_adaptive_simpson with each level summed by float(np.sum(...))."""
    fa, fb = float(fn(np.array([a]))[0]), float(fn(np.array([b]))[0])
    evals = 2
    trap = 0.5 * (b - a) * (fa + fb)
    simpson_prev = None
    n = 1
    for _ in range(24):
        step = (b - a) / n
        total_mid = 0.0
        for lo in range(0, n, 1 << 20):
            hi = min(lo + (1 << 20), n)
            xm = a + (np.arange(lo, hi, dtype=float) + 0.5) * step
            total_mid += float(np.sum(np.asarray(fn(xm), dtype=float)))
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
    raise AssertionError("the reference did not converge")


def _reference_with_breakpoints(fn, a, b, tol, breakpoints):
    pts = sorted({a, b} | {p for p in breakpoints if a < p < b})
    value = err = 0.0
    evals = 0
    for lo, hi in zip(pts[:-1], pts[1:]):
        r = _per_level_reference(fn, lo, hi, tol)
        value += r.value
        err += r.est_error
        evals += r.evaluations
    return QuadratureResult(value, err, evals)


def _quadrature_cases():
    from extremal_means.dickman import rho
    from extremal_means.extremal import find_U, mean_grid

    for u in np.linspace(2.0, 3.0, 201)[1:]:
        u = float(u)
        yield (lambda t, u=u: np.log(u - t) / t), 1.0, u - 1.0, 1e-12, ()
    for delta in (0.03, 1e-3):  # U in (3, 4) and (4, 5)
        U = find_U(delta)
        cuts = [float(j) for j in range(4, int(np.floor(U)) + 1)]
        yield mean_grid(delta, U).value_cubic, 3.0, U, 1e-11, cuts
    yield rho, 2.0, 6.0, 1e-11, (3.0, 4.0, 5.0)
    # a square-root cusp off the halving points: 2^20 + 1 evaluations
    yield (lambda t: np.sqrt(np.abs(t - 0.3))), 0.0, 1.0, 1e-9, ()


def test_level_sums_keep_the_per_level_reference_bits():
    # np.add.reduce is the reduction np.sum wraps: same pairwise sum, same bits
    deep = 0
    for fn, a, b, tol, cuts in _quadrature_cases():
        got = integrate_callable(fn, a, b, tol=tol, breakpoints=cuts)
        assert got == _reference_with_breakpoints(fn, a, b, tol, cuts)
        deep = max(deep, got.evaluations)
    assert deep >= 2**14 + 1  # at least 14 halvings in one case


def _recording(pred):
    """The predicate, plus the list of points it was evaluated at."""
    seen = []

    def below(x):
        seen.append(x)
        return pred(x)

    return below, seen


def test_bisect_stops_at_tol():
    below, seen = _recording(lambda x: x < 0.3)
    x = bisect(below, 0.0, 1.0, tol=2.0**-20)
    # the bracket halves from width 1 to width 2^-20, which equals tol and stops it
    assert len(seen) == 20
    assert abs(x - 0.3) <= 2.0**-21


@pytest.mark.parametrize("answer", [True, False])
def test_bisect_evaluates_strictly_inside_the_bracket(answer):
    # a constant predicate walks the bracket onto one end; tol = 0 runs it
    # down to adjacent floats, 52 halvings on [1, 2]
    below, seen = _recording(lambda x: answer)
    x = bisect(below, 1.0, 2.0)
    assert seen and all(1.0 < s < 2.0 for s in seen)
    assert len(seen) == 52
    assert x == (2.0 if answer else 1.0)  # the midpoint of adjacent floats rounds onto an end


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewiseFunction(breakpoints=(0.5, 1.0), segments=(ConstantSegment(1),) * 2)
    with pytest.raises(ValueError):
        PiecewiseFunction(breakpoints=(0.0, 1.0, 1.0), segments=(ConstantSegment(1),) * 3)
    with pytest.raises(ValueError):
        PiecewiseFunction(breakpoints=(0.0, 1.0), segments=(ConstantSegment(1),))
    # non-finite breakpoints and a domain end at or before the last
    # breakpoint, NaN included, fail at construction
    two = (ConstantSegment(1.0), ConstantSegment(-0.3))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=rf"^breakpoints must be finite, got {bad}$"):
            PiecewiseFunction(breakpoints=(0.0, bad), segments=two)
    for bad in (math.nan, 1.0, 0.5, -math.inf):
        with pytest.raises(ValueError, match=rf"^domain_end must exceed .* 1.0, got {bad}$"):
            PiecewiseFunction(breakpoints=(0.0, 1.0), segments=two, domain_end=bad)
    # the least domain end past the last breakpoint stays accepted
    PiecewiseFunction(breakpoints=(0.0, 1.0), segments=two, domain_end=math.nextafter(1.0, 2.0))


def test_sampled_segment_linear_exact():
    # linear data reproduces exactly under linear interpolation
    h = 0.25
    xs = 1.0 + h * np.arange(9)
    seg = SampledSegment(start=1.0, h=h, samples=3.0 * xs - 1.0)
    probe = np.array([1.0, 1.1, 2.03, 2.999])
    assert np.allclose(seg.values(probe), 3.0 * probe - 1.0, atol=1e-13)



def test_linear_at_reaches_both_ends():
    # the last node is read with weight 1 on it, not one past the end
    x = np.array([0.0, 2.0, 4.0])
    got = linear_at(x, np.array([0.0, 0.5, 1.75, 2.0]))
    assert np.array_equal(got, [0.0, 1.0, 3.5, 4.0])
