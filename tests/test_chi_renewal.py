"""Mean-preserving profile extension past the first zero.

The marched extension is checked against a from-scratch midpoint
quadrature of the renewal identity at one off-grid point, plus the
structural requirements: range, continuity, kernel mass, and the
vanishing of the induced mean beyond the zero.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from extremal_means import chi_renewal, sigma
from extremal_means.chi_renewal import (
    extend_chi,
    kernel_mass,
    verify_sigma_vanishes,
)
from extremal_means.extremal import find_U, mean_grid
from extremal_means.sigma import LaggedSum, sigma_closed, sigma_dde, solve_volterra

THREE_DELTAS = (0.1, 0.2, 0.44)
SRC = Path(__file__).resolve().parents[1] / "src"


def brute_renewal_value(delta: float, t: float, panels: int = 200_000) -> float:
    """chi(t) = int_1^U (1+delta)*sigma(v-1)/v * chi(t-v) dv, valid for
    U < t < min(U+1, 2) + 1 where every chi(t-v) is still the known
    window; midpoint panels split at v = t-1 where the window jumps."""
    U = find_U(delta)
    assert U < t < U + 1.0 and t - 1.0 > 1.0

    def piece(lo: float, hi: float, window_value: float) -> float:
        v = lo + (np.arange(panels) + 0.5) * (hi - lo) / panels
        mean = np.array([sigma_closed(delta, w) for w in (v - 1.0).tolist()])
        kern = (1.0 + delta) * mean / v
        return window_value * float(np.sum(kern)) * (hi - lo) / panels

    return piece(1.0, t - 1.0, -delta) + piece(t - 1.0, U, 1.0)


def test_extension_matches_brute_renewal_quadrature():
    delta = 0.2
    U = find_U(delta)
    t = U + 0.01
    brute = brute_renewal_value(delta, t)
    assert abs(brute - 0.5230729460873379) < 1e-9  # frozen at these panels
    ext = extend_chi(delta)
    assert abs(ext.value(t) - brute) < 1e-8


def test_first_extension_value_closed_form():
    # chi(U+) = (1+delta)*sigma(U-1) - sigma(U) - delta with sigma the
    # window solution (sigma(U) = 0 by definition of U)
    delta = 0.2
    U = find_U(delta)
    expect = (1.0 + delta) * sigma_closed(delta, U - 1.0) - delta
    ext = extend_chi(delta)
    assert abs(ext.samples[0] - expect) < 1e-9
    assert abs(ext.samples[0] - 0.5334503419085725) < 1e-9  # frozen


def test_kernel_has_unit_mass():
    for delta in THREE_DELTAS:
        assert abs(kernel_mass(delta) - 1.0) < 1e-8


@pytest.mark.parametrize("delta", THREE_DELTAS)
def test_extension_range_continuity_and_vanishing(delta):
    ext = extend_chi(delta)
    U = ext.U
    assert abs(U - find_U(delta)) < 1e-12
    # range [-delta, 1] up to rounding
    assert float(np.min(ext.samples)) >= -delta - 1e-12
    assert float(np.max(ext.samples)) <= 1.0 + 1e-12
    # continuity beyond the seam: consecutive grid steps stay O(h)
    assert float(np.max(np.abs(np.diff(ext.samples)))) <= 10.0 * ext.h
    # induced mean vanishes identically past U
    assert verify_sigma_vanishes(ext, 3.0 * U) <= 1e-6


def test_control_without_extension_goes_negative():
    # the plain window profile drives the mean below zero past U
    delta = 0.2
    sol = sigma_dde(delta, 3.0, richardson=True)
    U = find_U(delta)
    assert sol.value_cubic(U + 0.5) < -1e-3


def test_value_regions_and_domain():
    delta = 0.2
    ext = extend_chi(delta)
    assert ext.value(0.5) == 1.0
    assert ext.value(1.0) == -delta
    assert ext.value(ext.U) == -delta  # window is closed on the right
    assert ext.value(ext.U + ext.h) != -delta
    # NaN fails every region mask, so it must fail the range check too
    for bad in (-0.1, ext.t_max + 1.0, math.nan):
        message = rf"^t must be finite and lie in \[0, {ext.t_max}\], got {bad}$"
        with pytest.raises(ValueError, match=message):
            ext.value(bad)
        with pytest.raises(ValueError, match=message):
            ext.value(np.array([bad, 0.5]))
    vec = ext.value(np.array([0.5, 1.5, ext.U + 0.5]))
    assert vec.shape == (3,)


def test_default_horizon_and_validation():
    ext = extend_chi(0.3)
    assert abs(ext.t_max - 4.0 * ext.U) < 2e-4  # rounded to the grid
    with pytest.raises(ValueError):
        extend_chi(0.0)
    with pytest.raises(ValueError):
        extend_chi(1.2)
    with pytest.raises(ValueError):
        extend_chi(0.3, h=3e-4)  # step must divide the unit delay


def test_extension_independent_of_horizon():
    # marching further must not change earlier values, not even in the last
    # bit: every block sums all of its m rows before the horizon cuts it
    delta = 0.25
    short = extend_chi(delta, t_max=2.5 * find_U(delta))
    longer = extend_chi(delta, t_max=3.5 * find_U(delta))
    n = min(len(short.samples), len(longer.samples))
    assert np.array_equal(short.samples[:n], longer.samples[:n])


def test_samples_do_not_depend_on_the_blas_thread_count():
    # the march makes no BLAS call, so one and two threads give the same bits
    script = (
        "import hashlib; from extremal_means.chi_renewal import extend_chi; "
        "print(hashlib.sha256(extend_chi(0.1).samples.tobytes()).hexdigest())"
    )
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        digests.add(run.stdout)
    assert len(digests) == 1


def looped_extension(delta: float, t_max: float, h: float) -> np.ndarray:
    """The renewal march with one np.dot per extension node, as extend_chi
    ran before it filled unit blocks by lagged FFT sums; the reference."""
    U = find_U(delta)
    m = round(1.0 / h)
    mean_at = mean_grid(delta, U).value_cubic
    s_at_U = float(mean_at(U))

    def kernel(v):
        return (1.0 + delta) * mean_at(v - 1.0) / v

    M = int(math.floor(U / h - 1e-12))
    K_nodes = np.zeros(M + 1)
    K_nodes[m:] = kernel(np.arange(m, M + 1) * h)
    K_end = float(kernel(np.array([U]))[0])
    stub = U - M * h
    L = int(math.ceil((t_max - U) / h - 1e-9))
    ext = np.empty(L + 1)
    extrev = np.empty(L + 1)

    def put(l, val):
        ext[l] = val
        extrev[L - l] = val

    put(0, (1.0 - s_at_U) - (1.0 + delta) * (1.0 - float(mean_at(U - 1.0))))
    n_early = min(m, L)
    if n_early >= 1:
        x = U - 1.0 + np.arange(1, n_early + 1) * h
        early = -delta - s_at_U + (1.0 + delta) * mean_at(x)
        ext[1 : n_early + 1] = early
        extrev[L - n_early : L] = early[::-1]
    if L > m:
        lo, hi = m + 1, min(L, M)
        dip_term = np.zeros(L + 1)
        if hi >= lo:
            dip_term[lo : hi + 1] = -delta * (mean_at(np.arange(lo, hi + 1) * h) - s_at_U)
        U_over_h = U / h
        for l in range(m + 1, L + 1):
            jmax = min(l, M)
            lo_i = L - l + m
            dot = float(np.dot(K_nodes[m : jmax + 1], extrev[lo_i : lo_i + (jmax - m + 1)]))
            dot -= 0.5 * (K_nodes[m] * ext[l - m] + K_nodes[jmax] * ext[l - jmax])
            val = h * dot
            if l <= M:
                val += dip_term[l]
            else:
                pos = l - U_over_h
                i0 = min(int(pos), l - 1)
                frac = pos - i0
                chi_at = ext[i0] * (1.0 - frac) + ext[i0 + 1] * frac
                val += 0.5 * stub * (K_nodes[M] * ext[l - M] + K_end * chi_at)
            put(l, val)
    return ext


@pytest.mark.parametrize("h", [1e-3, 1e-4, 5e-5])
@pytest.mark.parametrize("delta", [0.1, 0.3, 0.6, 1.0])
def test_blocked_march_equals_the_looped_one_bit_for_bit(delta, h):
    # L extension steps against m = 1/h and the last whole kernel node M:
    # early values only (L <= m), growing windows (m < L <= M), and full
    # windows over whole and partial blocks (L > M); 1.5 U is oracle's horizon.
    # The FFT sums round in another order than one np.dot per row, so the
    # samples agree to a few ulps (6.7e-16 at worst here), not bit for bit.
    U = find_U(delta)
    m, M = round(1.0 / h), int(math.floor(U / h - 1e-12))
    regimes = set()
    for t_max in (U + 0.5, 1.5 * U, U + 0.5 * (1.0 + U), 2.0 * U + 1.5):
        got = extend_chi(delta, t_max=t_max, h=h).samples
        L = len(got) - 1
        regimes.add((L > m) + (L > M))
        assert np.max(np.abs(got - looped_extension(delta, t_max, h))) <= 1e-14
    assert regimes == {0, 1, 2}
    # the seams: the first growing window, the last, and the first full one
    for L in (m + 1, M, M + 1):
        got = extend_chi(delta, t_max=U + L * h, h=h).samples
        assert len(got) - 1 == L
        assert np.max(np.abs(got - looped_extension(delta, U + L * h, h))) <= 1e-14


class PerBlockSum:
    """sigma.LaggedSum with every chunk and weight segment transformed again
    in each block, at LaggedSum's transform length: the bit-for-bit
    reference for the kept spectra."""

    def __init__(self, w, x, m):
        self.w, self.x, self.m = w, x, m

    def __call__(self, b, e):
        m, w, x = self.m, self.w, self.x
        nfft = sigma._smooth_length(2 * m - 1)
        spec = np.zeros(nfft // 2 + 1, dtype=complex)
        for c in range(1, b, m):
            if b - c - m + 1 < len(w):
                p = np.fft.rfft(x[c : c + m], nfft)
                p *= np.fft.rfft(w[b - c - m + 1 : e - c], nfft)
                spec += p
        return np.fft.irfft(spec, nfft)[m - 1 : m - 1 + e - b]


def renewal_bits(delta, h):
    """The extension samples, and the Volterra values (plain, Richardson)
    on a horizon whose last block is short."""
    ext = extend_chi(delta, h=h)
    plain = solve_volterra(ext.profile, ext.U + 1.37, h=h).values
    assert (len(plain) - 1) % round(1.0 / h) != 0
    sharp = solve_volterra(ext.profile, ext.U + 1.37, h=h, richardson=True).values
    return ext.samples, plain, sharp


@pytest.mark.parametrize("h", [1e-3, 1e-4, 5e-5])
@pytest.mark.parametrize("delta", [0.1, 0.3, 0.6, 1.0])
def test_kept_weight_spectra_leave_every_value_bit_for_bit(delta, h, monkeypatch):
    # each block multiplies the same two spectra in the same order and
    # sums in ascending chunks, so keeping the chunk and weight spectra moves
    # no bit (a product written W * rfft(chunk) instead moves the last bits)
    got = renewal_bits(delta, h)
    monkeypatch.setattr(chi_renewal, "LaggedSum", PerBlockSum)
    monkeypatch.setattr(sigma, "LaggedSum", PerBlockSum)
    for new, old in zip(got, renewal_bits(delta, h)):
        assert np.array_equal(new, old)


def test_a_march_transforms_each_full_weight_segment_once(monkeypatch):
    # the renewal march and both Volterra legs (whose last blocks are
    # short, with cut segments of their own), one LaggedSum each: no chunk
    # and no weight segment is transformed twice, and every chunk up to the
    # last block is transformed once
    sums, inputs = [], []

    class Recorded(LaggedSum):
        def __init__(self, w, x, m):
            super().__init__(w, x, m)
            self.blocks = []
            sums.append(self)

        def __call__(self, b, e):
            self.blocks.append(b)
            return super().__call__(b, e)

    def offsets(base):
        start = base.__array_interface__["data"][0]
        return [
            ((a.__array_interface__["data"][0] - start) // 8, len(a))
            for a in inputs
            if np.shares_memory(a, base)
        ]

    real = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda a, *args: inputs.append(a) or real(a, *args))
    monkeypatch.setattr(chi_renewal, "LaggedSum", Recorded)
    monkeypatch.setattr(sigma, "LaggedSum", Recorded)
    ext = extend_chi(0.2)
    solve_volterra(ext.profile, 2.5 * ext.U, richardson=True)
    assert len(sums) == 3
    for lagged in sums:
        segments = offsets(lagged.w)
        assert len(segments) >= 2 and len(set(segments)) == len(segments)
        m = lagged.m
        assert sorted(offsets(lagged.x)) == [(c, m) for c in range(1, lagged.blocks[-1], m)]
    # the kernel spans [1, U]: at most one segment per unit of it
    assert sums[0].x is ext.samples
    assert len(offsets(sums[0].w)) <= math.ceil(ext.U) + 1


def test_kept_spectra_grow_the_march_by_the_kernel_support_at_most():
    # the per-block sums peaked at 3.64 MB traced for this march; the kept
    # spectra add at most ceil(U) + 1 of nfft/2 + 1 complex numbers
    delta, h = 0.3, 5e-5
    nfft = 1 << (2 * round(1.0 / h)).bit_length()
    tracemalloc.start()
    try:
        ext = extend_chi(delta, h=h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3_640_000 + (math.ceil(ext.U) + 1) * 16 * (nfft // 2 + 1)


def test_chunk_spectra_at_smooth_lengths_stay_under_the_weight_only_peak():
    # with the weight spectra alone, at power-of-two lengths, this march
    # peaked at 5.32 MB traced; smooth lengths pay for the chunk spectra
    tracemalloc.start()
    try:
        extend_chi(0.3, h=5e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5_320_000


def test_an_extension_out_of_range_raises(monkeypatch):
    # a kernel of twice the mass pushes chi above 1 (to about 1.068 at 0.3)
    real = chi_renewal._renewal_kernel

    def doubled(delta):
        U, mean_at, kernel = real(delta)
        return U, mean_at, lambda v: 2.0 * kernel(v)

    monkeypatch.setattr(chi_renewal, "_renewal_kernel", doubled)
    message = r"^extension escaped \[-delta, 1\]: range \[-0\.30*\d*, 1\.068\d*\]$"
    with pytest.raises(RuntimeError, match=message):
        extend_chi(0.3)
