"""Finite-scale checks of the multiplicative-function laboratory.

Sieves are compared against an independent Sundaram sieve, the divisor
correlation against a brute double loop, and the named identities
(coprime power sums, the four-way hyperbola split) against exact closed
forms.  Construction quality targets are generous by design: desk scale
stands in for asymptopia.
"""

from __future__ import annotations

import csv
import io
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from extremal_means import oracle
from extremal_means.chi_renewal import extend_chi
from extremal_means.cli import fmt_sig, main, render_oracle_csv
from extremal_means.extremal import find_U
from extremal_means.oracle import (
    MAX_ORDER,
    IntegerStepProfile,
    InfeasibleError,
    MultiplicativeSpec,
    StepProfile,
    build_angles,
    build_f,
    build_g,
    construct_tracking_spec,
    coprime_power_sum,
    divisor_correlation,
    divisor_domination_check,
    empirical_chi,
    mean_values,
    mobius,
    random_spec,
    sandwich_check,
    sieve_primes,
    smallest_prime_factors,
    spec_tracking_rows,
    totient,
    tracking_rows,
    transforms,
    _dirichlet,
    _greedy_classes,
    _roots,
)

from conftest import DESK_DELTA, DESK_N, DESK_Y

SEEDED_SPECS = ((2, 11, 0.0), (3, 12, 0.3), (4, 13, 0.2))
# (k, delta, y, A, N): each runs past U into the extended profile
GREEDY_SPECS = (
    (2, 1.0, 100.0, 1.5, 10**5),
    (3, 0.45, 30.0, 1.5, 10**5),
    (4, 0.3, 30.0, 1.5, 10**5),
)
MILLION = 10**6


@pytest.fixture(scope="module")
def million_spec() -> MultiplicativeSpec:
    """Order 3 with the value 0 at some primes, which lie past y = 10 both
    below and above sqrt(N): the builder slices the ones and scatters the
    others."""
    return random_spec(3, 10.0, MILLION, seed=1, zero_probability=0.2)


def traced_peak(call):
    """call() and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64)


def sundaram_primes(N: int) -> np.ndarray:
    """Independent sieve: odd primes via the Sundaram marking, plus 2."""
    if N < 2:
        return np.array([], dtype=np.int64)
    m = (N - 1) // 2
    marked = np.zeros(m + 1, dtype=bool)
    for i in range(1, (int(math.isqrt(N)) + 1) // 2 + 1):
        marked[2 * i * (i + 1) :: 2 * i + 1] = True  # i + j + 2ij, j >= i
    odds = 2 * np.flatnonzero(~marked[1:]) + 3
    return np.concatenate(([2], odds[odds <= N]))


def test_prime_sieve_against_sundaram():
    for N in (2, 3, 10, 97, 10**5):
        assert np.array_equal(sieve_primes(N), sundaram_primes(N))


def test_prime_counts():
    assert len(sieve_primes(10**6)) == 78498
    assert sieve_primes(10)[-1] == 7
    with pytest.raises(ValueError):
        sieve_primes(1)
    with pytest.raises(ValueError):
        sieve_primes(10**9)


def test_smallest_prime_factors():
    spf = smallest_prime_factors(100)
    assert spf[1] == 1
    for n, expect in ((2, 2), (4, 2), (9, 3), (15, 3), (49, 7), (97, 97), (100, 2)):
        assert spf[n] == expect
    primes = sieve_primes(100)
    assert np.array_equal(spf[primes], primes)


def masked_spf(N: int) -> np.ndarray:
    """The masked Eratosthenes loop: each prime fills only the entries
    no smaller prime has claimed; the bit-for-bit reference."""
    spf = np.zeros(N + 1, dtype=np.int32)
    spf[1] = 1
    for p in range(2, math.isqrt(N) + 1):
        if spf[p] == 0:
            spf[p] = p
            block = spf[p * p :: p]
            block[block == 0] = p
    rest = np.flatnonzero(spf[2:] == 0) + 2
    spf[rest] = rest
    return spf


@pytest.mark.parametrize("N", [2, 3, 4, 5, 97, 10**5, 2 * 10**6])
def test_smallest_prime_factors_equal_the_masked_loop(N):
    spf = smallest_prime_factors(N)
    assert spf.dtype == np.int32
    assert np.array_equal(spf, masked_spf(N))


def test_liouville_partial_sum():
    # all primes sent to the angle index of -1 makes f(n) = (-1)^Omega(n);
    # its partial sum to 10^6 is a classical table value
    N = 10**6
    primes = sieve_primes(N)
    spec = MultiplicativeSpec(k=2, y=1.0, primes=primes, assignment=(1,) * len(primes), N=N)
    f = build_f(spec, N)
    total = complex(np.sum(f[1:]))
    assert abs(total - (-530.0)) < 1e-6
    assert abs(total) / N < 1e-3  # mean is tiny at this scale


def test_complete_multiplicativity():
    spec = random_spec(5, 10.0, 2000, seed=3, zero_probability=0.2)
    f = build_f(spec, 2000)
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = int(rng.integers(2, 45))
        n = int(rng.integers(2, 2000 // m))
        assert abs(f[m * n] - f[m] * f[n]) < 1e-12


def test_complete_multiplicativity_at_the_largest_order():
    # two angle indices just below MAX_ORDER still add without wrapping int16
    spec = random_spec(MAX_ORDER, 1.0, 10**5, seed=1)
    f = build_f(spec, 10**5)
    rng = np.random.default_rng(0)
    m = rng.integers(2, 317, size=2000)
    n = rng.integers(2, 10**5 // m + 1)
    assert np.max(np.abs(f[m * n] - f[m] * f[n])) < 1e-12


def doubling_block_builder(at_prime, spf, first, combine):
    """Out-of-place reference: uncapped doubling blocks [lo, 2 lo), primes read from at_prime."""
    N = len(at_prime) - 1
    out = np.empty_like(at_prime)
    out[:2] = first
    lo = 2
    while lo <= N:
        hi = min(2 * lo, N + 1)
        p = spf[lo:hi]
        out[lo:hi] = combine(out[np.arange(lo, hi, dtype=spf.dtype) // p], at_prime[p])
        lo = hi
    return out


def test_in_place_builders_equal_the_doubling_block_reference(million_spec):
    k, N = million_spec.k, MILLION
    spf = smallest_prime_factors(N)
    ell_at = np.zeros(N + 1, dtype=np.int16)
    ell_at[million_spec.primes] = million_spec.assignment

    def add_angles(a, b):
        s = (a + b) % k
        s[(a == k) | (b == k)] = k
        return s

    ell = doubling_block_builder(ell_at, spf, (k, 0), add_angles)
    assert np.count_nonzero(ell == k) > 0  # the absorbing index occurs
    angles = build_angles(million_spec, N)
    assert angles.dtype == np.int16 and np.array_equal(angles, ell)
    f = build_f(million_spec, N)
    assert np.array_equal(bits(f), bits(np.append(np.exp(2j * np.pi * np.arange(k) / k), 0.0)[ell]))
    assert np.array_equal(bits(f), bits(_roots(k)[angles]))
    g = doubling_block_builder(np.abs(1.0 + f) - 1.0, spf, (0.0, 1.0), np.multiply)
    assert np.array_equal(bits(build_g(f)), bits(g))


# N = p^2 and p^3 put a prime power on the last entry and sqrt(N) on a prime
SLICE_SIZES = tuple(range(2, 201)) + tuple(p**j for p in (2, 3, 13, 47) for j in (2, 3)) + (10**5,)


def test_prime_power_slices_equal_the_spf_recursion_bit_for_bit():
    # The spf recursion multiplies each n's prime factors from the largest
    # down to the smallest.  Distinct float values at the primes below
    # sqrt(N) (a non-unimodular f, with some f(p) = 1, 0 and -1) make that
    # order visible in g's bits; the angles carry zeros (index k) there.
    rng = np.random.default_rng(0)
    for n in SLICE_SIZES:
        spf = smallest_prime_factors(n)
        spec = random_spec(5, 1.0, n, seed=n, zero_probability=0.2)
        ell_at = np.zeros(n + 1, dtype=np.int16)
        ell_at[spec.primes] = spec.assignment

        def add_angles(a, b):
            s = (a + b) % 5
            s[(a == 5) | (b == 5)] = 5
            return s

        ell = doubling_block_builder(ell_at, spf, (5, 0), add_angles)
        assert np.array_equal(build_angles(spec, n), ell), f"N={n}"
        f = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        f[rng.integers(0, n + 1, size=n // 10 + 1)] = rng.choice([1.0, 0.0, -1.0], size=n // 10 + 1)
        g = doubling_block_builder(np.abs(1.0 + f) - 1.0, spf, (0.0, 1.0), np.multiply)
        assert np.array_equal(bits(build_g(f)), bits(g)), f"N={n}"
    square = MultiplicativeSpec(k=3, y=1.0, primes=np.array([2, 3, 25]), assignment=(1, 2, 1), N=25)
    with pytest.raises(ValueError, match="^spec entry 25 is not a prime$"):
        build_angles(square, 25)


def test_build_f_validation():
    spec = random_spec(3, 10.0, 1000, seed=1)
    with pytest.raises(ValueError):
        build_f(spec, 2000)
    with pytest.raises(ValueError):
        MultiplicativeSpec(k=1, y=1.0, primes=np.array([], dtype=np.int64), assignment=(), N=100)
    with pytest.raises(ValueError):
        MultiplicativeSpec(k=3, y=10.0, primes=np.array([7]), assignment=(1,), N=100)
    with pytest.raises(ValueError):
        # index k is the value 0, so k + 1 is the first index out of range
        MultiplicativeSpec(k=3, y=10.0, primes=np.array([11]), assignment=(4,), N=100)


def test_random_spec_draw_is_frozen():
    # a zero drawn at a prime is the absorbing index k
    spec = random_spec(3, 50.0, 20000, seed=12, zero_probability=0.3)
    assert len(spec.primes) == len(spec.assignment) == 2247
    assert Counter(spec.assignment) == {0: 524, 1: 475, 2: 573, 3: 675}
    assert complex(np.sum(build_f(spec, 20000)[1:])) == (3961.999999999998 - 1176.0624983392663j)


def test_companion_g_for_order_three_is_indicator():
    # |1 + e(1/3)| = |1 + e(2/3)| = 1, so g(p) is 1 on f(p) = 1 and 0 else;
    # multiplicativity then keeps g(n) in {0, 1} everywhere
    spec = random_spec(3, 10.0, 2 * 10**4, seed=5)
    f = build_f(spec, 2 * 10**4)
    g = build_g(f)
    assert set(np.unique(np.round(g, 12)).tolist()) == {0.0, 1.0}


def test_companion_g_against_trial_division():
    # y = 2 leaves only the prime 2 at value 1, so most n have several
    # non-unit prime factors, some repeated and some at the value 0
    N = 2000
    spec = random_spec(4, 2.0, N, seed=9, zero_probability=0.1)
    f = build_f(spec, N)
    g = build_g(f)
    assert g[0] == 0.0 and g[1] == 1.0
    for n in range(2, N + 1):
        expect, m, d = 1.0, n, 2
        while d * d <= m:
            while m % d == 0:
                expect *= abs(1.0 + f[d]) - 1.0
                m //= d
            d += 1
        if m > 1:
            expect *= abs(1.0 + f[m]) - 1.0
        assert abs(g[n] - expect) < 1e-12, f"n={n}"


def test_divisor_correlation_against_brute_force():
    spec = random_spec(4, 5.0, 1000, seed=2, zero_probability=0.1)
    f = build_f(spec, 1000)
    h = divisor_correlation(f, 300)
    for n in range(1, 301):
        brute = sum(f[d] * np.conj(f[n // d]) for d in range(1, n + 1) if n % d == 0)
        assert abs(h[n] - brute) < 1e-12


def per_d_correlation(f: np.ndarray, n_max: int) -> np.ndarray:
    h = np.zeros(n_max + 1, dtype=complex)
    for a in range(1, n_max + 1):
        h[a::a] += f[a] * np.conj(f[1 : n_max // a + 1])
    return h


def per_d_sums(values: np.ndarray, n_max: int) -> np.ndarray:
    out = np.zeros(n_max + 1, dtype=values.dtype)
    for d in range(1, n_max + 1):
        out[d::d] += values[d]
    return out


def test_divisor_sums_equal_the_per_d_loops():
    # the hyperbola split adds each n's divisors in the same ascending
    # order as one slice per divisor, and x * 1.0 == x, so every bit agrees
    N = 10**5
    f = build_f(random_spec(4, 10.0, N, seed=11, zero_probability=0.1), N)
    g = build_g(f)
    for n_max in (1, 2, 3, 16, 17, 1000, N):
        h = _dirichlet(f, np.conj(f[: n_max + 1]), n_max)
        assert np.array_equal(bits(h), bits(per_d_correlation(f, n_max)))
        assert np.array_equal(bits(divisor_correlation(f, n_max)), bits(h))
    ones = np.ones(N + 1)
    assert np.array_equal(bits(_dirichlet(f, ones, N)), bits(per_d_sums(f, N)))
    assert np.array_equal(bits(_dirichlet(g, ones, N)), bits(per_d_sums(g, N)))


def per_prime_domination_check(f: np.ndarray, n_max: int) -> int:
    """Reference: the bad-prime squares excluded one prime at a time."""
    g = build_g(f[: n_max + 1])
    f_div, g_div = per_d_sums(f[: n_max + 1], n_max), per_d_sums(g, n_max)
    excluded = np.zeros(n_max + 1, dtype=bool)
    for p in sieve_primes(n_max).tolist():
        if p * p > n_max:
            break
        if abs(f[p] - 1.0) > 1e-12:
            excluded[p * p :: p * p] = True
    excluded[0] = True
    return int(np.sum((np.abs(f_div) > g_div + 1e-9) & ~excluded))


def per_prime_sandwich_check(g: np.ndarray, n_max: int) -> float:
    """Reference: every prime visited, the unit ones skipped."""
    s1 = np.zeros(n_max + 1)
    s2 = np.zeros(n_max + 1)
    excluded = np.zeros(n_max + 1, dtype=bool)
    for p in sieve_primes(n_max).tolist():
        c = 1.0 - g[p]
        if c != 0.0:
            s1[p::p] += c
            s2[p::p] += c * c
            if p * p <= n_max:
                excluded[p * p :: p * p] = True
    excluded[0] = True
    gn = g[: n_max + 1]
    worst = np.maximum((1.0 - s1) - gn, gn - (1.0 - s1 + 0.5 * (s1 * s1 - s2)))
    worst[excluded] = -np.inf
    return float(max(0.0, np.max(worst)))


@pytest.mark.parametrize("k", [3, 4])
def test_repeated_bad_prime_mask_equals_the_per_prime_loops(k):
    # the multiplicative f and g give 0 either way; the perturbed copies
    # are not multiplicative, so their counts and defects read the mask
    N = 10**5
    f = build_f(random_spec(k, 10.0, N, seed=k, zero_probability=0.2), N)
    g = build_g(f)
    n = np.arange(N + 1)
    f_off = f * np.exp(0.3j * (n % 7))
    g_off = g * (1.0 + 0.01 * np.cos(n))
    for ff in (f, f_off):
        assert divisor_domination_check(ff, N) == per_prime_domination_check(ff, N)
    assert divisor_domination_check(f_off, N) > 0
    for gg in (g, g_off):
        assert sandwich_check(gg, N) == per_prime_sandwich_check(gg, N)
    assert sandwich_check(g_off, N) > 1e-3


def test_correlation_at_primes_and_divisor_bound():
    spec = random_spec(4, 10.0, 10**5, seed=7)
    f = build_f(spec, 10**5)
    n_max = 10**4
    h = divisor_correlation(f, n_max)
    primes = sieve_primes(n_max)
    assert np.max(np.abs(h[primes] - 2.0 * np.real(f[primes]))) < 1e-12
    # |h(n)| never exceeds the divisor count
    d = np.zeros(n_max + 1)
    for a in range(1, n_max + 1):
        d[a::a] += 1.0
    assert np.all(np.abs(h[1:]) <= d[1:] + 1e-9)


def test_hyperbola_four_way_identity():
    # sum_{n <= Y} h(n) split along ab = n with a <= X, b <= Y/X; the
    # cross term subtracts the double-counted rectangle.  X chosen so
    # Y/X is not an integer (integer Z double-counts lattice points).
    spec = random_spec(4, 10.0, 10**5, seed=7)
    f = build_f(spec, 10**5)
    Y, X = 2000, 999
    Z = Y / X
    h = divisor_correlation(f, Y)
    S = np.concatenate(([0.0 + 0j], np.cumsum(f[1:])))
    lhs = complex(np.sum(h[1 : Y + 1]))
    rhs = sum(f[a] * np.conj(S[int(Y / a)]) for a in range(1, X + 1))
    rhs += sum(np.conj(f[b]) * S[int(Y / b)] for b in range(1, int(Z) + 1))
    rhs -= S[X] * np.conj(S[int(Z)])
    assert abs(lhs - rhs) < 1e-9
    assert abs(lhs - 1616.0) < 1e-9  # frozen for this seed


@pytest.mark.parametrize("k,seed,zp", SEEDED_SPECS)
def test_domination_and_sandwich_hold(k, seed, zp):
    spec = random_spec(k, 10.0, 10**5, seed=seed, zero_probability=zp)
    f = build_f(spec, 10**5)
    assert divisor_domination_check(f, 10**5) == 0
    g = build_g(f)
    assert sandwich_check(g, 10**5) <= 1e-12


def test_step_profile_conventions():
    prof = StepProfile(points=np.array([2.0, 3.0, 5.0]), cum=np.array([1.0, 3.0, 6.0]))
    assert prof.value(1.9) == 0.0
    assert prof.value(2.0) == 1.0  # right-continuous: jump included at the point
    assert prof.value(2.5) == 1.0
    assert prof.value(3.0) == 3.0
    assert prof.value(10.0) == 6.0
    vec = prof.value(np.array([1.0, 2.0, 4.0]))
    assert vec.shape == (3,) and np.array_equal(vec, [0.0, 1.0, 3.0])


def test_integer_step_profile_equals_the_searched_points():
    N = 7
    cum = np.cumsum(np.arange(1.0, N + 1) ** 2)
    searched = StepProfile(points=np.arange(1.0, N + 1), cum=cum)
    counted = IntegerStepProfile(cum=cum)
    us = [-1.0, 0.0, 0.5, np.nextafter(1.0, 0.0), 1.0, 2.5, float(N), N + 0.5, 1e300]
    for u in us:
        assert counted.value(u) == searched.value(u)
        assert type(counted.value(u)) is float
    assert np.array_equal(bits(counted.value(np.array(us))), bits(searched.value(np.array(us))))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=rf"^u must be finite, got {bad}$"):
            searched.value(bad)
        with pytest.raises(ValueError, match=rf"^u must be finite, got {bad}$"):
            counted.value(np.array([1.0, bad]))


def test_transforms_bundle_and_running_bound(desk_f):
    bundle = transforms(desk_f, DESK_N, h_max=64)
    assert len(bundle.h_values) == 65
    assert bundle.g_values[1] == 1.0
    # running partial sums of g stay above the deficiency lower bound
    # t (1 - D(t)) minus a 10 percent desk allowance
    ts = np.geomspace(DESK_Y, DESK_N, 200)
    margin = bundle.partial_sum.value(ts) - (
        ts * (1.0 - bundle.deficiency.value(ts)) - 0.1 * ts
    )
    assert float(np.min(margin)) >= 0.0
    with pytest.raises(ValueError):
        transforms(desk_f, DESK_N + 1)


def test_empirical_chi_conventions(desk_f):
    # below the threshold every prime carries the value 1
    assert abs(empirical_chi(desk_f, DESK_Y, 0.9) - 1.0) < 1e-12
    ones = np.ones(10**4 + 1, dtype=complex)
    ones[0] = 0.0
    assert abs(empirical_chi(ones, 100.0, 2.0) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        empirical_chi(desk_f, DESK_Y, 1.8)  # y^u past the array


def test_empirical_chi_desk_value(desk_f):
    val = empirical_chi(desk_f, DESK_Y, 1.3)
    assert abs(val.imag) < 1e-12  # order 2 keeps everything real
    assert abs(val.real - (-0.8748007251888871)) < 1e-9


def test_mean_values_and_report():
    ones = np.ones(201, dtype=complex)
    ones[0] = 0.0
    rep = mean_values(ones, 100.0)
    assert abs(rep.partial_sum_over_x - 1.0) < 1e-12
    harmonic = float(np.sum(1.0 / np.arange(1, 101)))
    assert abs(rep.log_mean - harmonic / math.log(100.0)) < 1e-12
    assert rep.check()
    with pytest.raises(ValueError):
        mean_values(ones, 1.5)
    with pytest.raises(ValueError):
        mean_values(ones, 500.0)


def test_desk_tracking_and_log_mean(desk_f):
    U = find_U(DESK_DELTA)
    us = [float(u) for u in np.arange(1.0, U, 0.05)] + [U]
    rows = tracking_rows(desk_f, DESK_Y, DESK_DELTA, us)
    assert len(rows) == len(us)
    worst = max(r.deviation for r in rows)
    assert worst <= 0.15
    # the log mean at the first zero approaches the order-2 constant
    final = rows[-1]
    assert abs(final.log_mean.real - (2.0 - 2.0 / math.sqrt(math.e))) < 0.1
    assert abs(final.log_mean.imag) < 1e-9
    assert final.target == 0.0 or final.u < U + 1e-12
    # targets themselves follow the dip solution: starts at 1, ends at 0
    assert abs(rows[0].target - (1.0 - 2.0 * math.log(1.0))) < 1e-9
    assert abs(rows[-1].target) < 1e-9
    assert tracking_rows(desk_f, DESK_Y, DESK_DELTA, []) == []
    with pytest.raises(ValueError):
        tracking_rows(desk_f, DESK_Y, DESK_DELTA, [1.75])


def full_cumsum_means(f, y, u_values):
    """Partial sums and log means read off running sums over all of f."""
    N = len(f) - 1
    csum = np.cumsum(f[1:])
    csum_div = np.cumsum(f[1:] / np.arange(1, N + 1))
    out = []
    for u in u_values:
        x = float(y) ** u
        n = int(x)
        out.append((complex(csum[n - 1] / x), complex(csum_div[n - 1] / math.log(x))))
    return out


def test_tracking_sums_equal_the_full_running_sums(desk_f):
    U = find_U(DESK_DELTA)
    us = [float(u) for u in np.arange(1.0, U, 0.05)] + [U]
    shuffled = [us[i] for i in np.random.default_rng(5).permutation(len(us))]
    repeated = us[::-1] + us[::4] + [us[0]]
    for u_values in (us, shuffled, repeated):
        rows = tracking_rows(desk_f, DESK_Y, DESK_DELTA, u_values)
        assert [(r.partial_sum, r.log_mean) for r in rows] == full_cumsum_means(
            desk_f, DESK_Y, u_values
        )


def test_spec_rows_equal_the_rows_of_the_built_f(desk_spec, desk_f):
    U = find_U(DESK_DELTA)
    us = [float(u) for u in np.arange(1.0, U, 0.05)] + [U]
    assert spec_tracking_rows(desk_spec, DESK_DELTA, us) == tracking_rows(
        desk_f, DESK_Y, DESK_DELTA, us
    )
    spec = construct_tracking_spec(3, 0.5, 1e3, 1.0, 10**6)
    us = [float(u) for u in np.arange(1.0, find_U(0.5), 0.05)]
    rows = spec_tracking_rows(spec, 0.5, us)
    assert rows == tracking_rows(build_f(spec, 10**6), 1e3, 0.5, us)
    assert any(r.partial_sum.imag != 0.0 for r in rows)  # order 3 sums complex roots


def test_oracle_command_takes_a_cutoff_on_N_up_to_rounding(capsys):
    # y^(A U) lands on N up to rounding; the spec and the rows share one
    # cutoff rule, so the rows of the spec the command builds are printed
    y, A, N = 1e4, 1.0010879505335595, 4_000_000
    u_top = A * find_U(1.0)
    assert y**u_top > N + 1e-9
    argv = ["oracle", "--k", "2", "--delta", "1", "--y", "1e4", "--n", str(N), "--a", repr(A)]
    assert main(argv) == 0
    printed = [r["deviation"] for r in csv.DictReader(io.StringIO(capsys.readouterr().out))]
    us = [float(u) for u in np.arange(1.0, u_top - 1e-12, 0.05)] + [u_top]
    rows = tracking_rows(build_f(construct_tracking_spec(2, 1.0, y, A, N), N), y, 1.0, us)
    assert printed == [fmt_sig(r.deviation) for r in rows]


def test_oracle_command_sieves_only_to_the_largest_cutoff(monkeypatch):
    # f(n) depends only on the factorization of n, so neither the spec
    # nor the angle array reads n past floor(y^(A U)), about 7.0e5 here
    # (the spec's prime sieve, and the sieve mask build_angles checks the
    # spec against; no builder calls smallest_prime_factors)
    sizes = {}
    for name in ("sieve_primes", "smallest_prime_factors", "_odd_prime_mask"):
        real, seen = getattr(oracle, name), sizes.setdefault(name, [])
        monkeypatch.setattr(oracle, name, lambda n, real=real, seen=seen: seen.append(n) or real(n))
    render_oracle_csv(3, 0.5, 1e3, MILLION, 1.0, 0.05, "csv")
    top = int(1e3 ** find_U(0.5))
    assert top < 0.71 * MILLION
    assert sizes["smallest_prime_factors"] == []
    assert max(sizes["sieve_primes"]) == max(sizes["_odd_prime_mask"]) == top


def test_oracle_command_keeps_f_as_angle_indices():
    # the angle indices (2 bytes per n) next to the odd-only sieve mask
    # (half a byte) while they are built, then a few MB of complex values
    # per chunk; a complex f alone is 16 bytes per n
    _, peak = traced_peak(lambda: render_oracle_csv(3, 0.5, 1e3, MILLION, 1.0, 0.05, "csv"))
    assert peak <= 9 * MILLION


def test_build_f_keeps_only_f_and_the_angle_indices(million_spec):
    # f is 16 bytes per n and the int16 angles 2; the sieve mask (half a
    # byte) is freed before f is built, and the builder's temporaries are
    # index slices of the spec's primes
    f, peak = traced_peak(lambda: build_f(million_spec, MILLION))
    assert peak <= 19 * MILLION
    assert len(f) == MILLION + 1


def test_transforms_free_the_sieve_before_the_sums(million_spec):
    # kept: g and the partial sums' running sums (8 bytes per n each, no
    # stored points) and the prime profile; the sieve mask is freed before
    # the sums
    f = build_f(million_spec, MILLION)
    _, peak = traced_peak(lambda: transforms(f, MILLION, h_max=16))
    assert peak <= 19 * MILLION


def test_step_profile_query_makes_no_cast_copy(million_spec):
    # a query allocates per query point, not per n: the partial-sum
    # profile counts the integers at or below u, with no stored or cast
    # copy of them
    bundle = transforms(build_f(million_spec, MILLION), MILLION, h_max=16)
    u = np.linspace(1.0, MILLION, 200)
    values, peak = traced_peak(lambda: bundle.partial_sum.value(u))
    assert peak <= 10**6
    assert np.array_equal(values, np.cumsum(bundle.g_values[1:])[u.astype(np.int64) - 1])


def test_tracking_sums_stream_in_bounded_chunks(desk_f):
    U = find_U(DESK_DELTA)
    us = [float(u) for u in np.arange(1.0, U, 0.05)] + [U]
    rows, peak = traced_peak(lambda: tracking_rows(desk_f, DESK_Y, DESK_DELTA, us))
    assert peak <= 16 * 10**6
    assert len(rows) == len(us)


def test_order3_construction_tracks_target():
    spec = construct_tracking_spec(3, 0.5, 1e3, 1.0, 10**6)
    counts = Counter(spec.assignment)
    assert counts[1] == 28080 and counts[2] == 28079  # balanced split, frozen
    f = build_f(spec, 10**6)
    val = empirical_chi(f, 1e3, 1.5)
    assert abs(val - (-0.5)) <= 0.05


def numpy_greedy(logs: np.ndarray, alpha: np.ndarray, k: int) -> list[int]:
    """Reference: the length-k numpy argmax loop, one running target per class."""
    target_cum = np.zeros(k)
    assigned = np.zeros(k)
    inc = np.empty(k)
    classes = []
    for w, a in zip(logs, alpha):
        inc[0] = (1.0 - (k - 1) * a) * w
        inc[1:] = a * w
        target_cum += inc
        ell = int(np.argmax(target_cum - assigned))
        assigned[ell] += w
        classes.append(ell)
    return classes


@pytest.mark.parametrize(("k", "delta", "y", "A", "N"), GREEDY_SPECS)
def test_tracking_assignment_matches_numpy_greedy(k, delta, y, A, N):
    spec = construct_tracking_spec(k, delta, y, A, N)
    U = find_U(delta)
    primes = sieve_primes(N)
    sel = primes[(primes > y) & (primes <= y ** (A * U))]
    assert spec.primes.tolist() == sel.tolist()
    logs = np.log(sel)
    t = logs / math.log(y)
    chi = np.full(len(sel), -delta)
    beyond = t > U
    assert beyond.any()
    chi[beyond] = extend_chi(delta, t_max=A * U).value(t[beyond])
    alpha = np.clip((1.0 - chi) / k, 0.0, 1.0 / (k - 1))
    assert list(spec.assignment) == numpy_greedy(logs, alpha, k)


def test_greedy_ties_go_to_the_lowest_class():
    # alpha = 1/4 makes every increment exact: all four gaps tie at the
    # first prime, the other three at the second, and the cycle repeats
    logs, alpha = np.ones(8), np.full(8, 0.25)
    assert _greedy_classes(logs, alpha, 4) == numpy_greedy(logs, alpha, 4) == [0, 1, 2, 3] * 2
    logs, alpha = np.log([11.0, 13.0]), np.full(2, 0.5)
    assert _greedy_classes(logs, alpha, 2) == numpy_greedy(logs, alpha, 2) == [0, 1]
    # distinct weights 2^-52 (class 1) and 0 (class 2) round to one gap
    # 2^52: the lower index wins, not the lighter class
    logs = np.array([2.0**-52, 2.0**53])
    assert _greedy_classes(logs, alpha, 3) == numpy_greedy(logs, alpha, 3) == [1, 1]


def test_greedy_heap_gives_the_loop_classes_on_spread_weights():
    # weights over 28 decades and class weights on a few exact values
    # make exact and rounded gap ties common
    rng = np.random.default_rng(7)
    for k in range(2, 8):
        for _ in range(25):
            n = int(rng.integers(1, 120))
            logs = 10.0 ** rng.uniform(-12.0, 16.0, n)
            alpha = rng.choice([0.0, 0.5 / (k - 1), 1.0 / k, 1.0 / (k - 1)], n)
            assert _greedy_classes(logs, alpha, k) == numpy_greedy(logs, alpha, k)


def test_construction_validation():
    with pytest.raises(InfeasibleError):
        construct_tracking_spec(3, 1.0, 100.0, 1.0, 10**5)
    with pytest.raises(ValueError):
        construct_tracking_spec(1, 0.5, 100.0, 1.0, 10**5)
    with pytest.raises(ValueError):
        construct_tracking_spec(2, 1.5, 100.0, 1.0, 10**5)
    with pytest.raises(ValueError):
        construct_tracking_spec(2, 0.5, 100.0, -1.0, 10**5)
    with pytest.raises(ValueError):
        construct_tracking_spec(2, 1.0, 10**4, 1.0, 10**5)  # y^U past N


def test_mobius_and_totient():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert [totient(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    assert mobius(30) == -1 and mobius(210) == 1
    assert totient(97) == 96
    with pytest.raises(ValueError):
        mobius(0)
    with pytest.raises(ValueError):
        totient(0)


def test_coprime_power_sum_closed_form():
    for k in range(1, 25):
        for l in range(1, k + 1):
            if k % l:
                continue
            lhs, rhs = coprime_power_sum(k, l)
            assert abs(lhs - rhs) < 1e-9, (k, l)
    assert coprime_power_sum(12.0, 3) == coprime_power_sum(12, 3)
    with pytest.raises(ValueError):
        coprime_power_sum(6, 4)
    with pytest.raises(ValueError):
        coprime_power_sum(0, 1)
