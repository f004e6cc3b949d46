"""Desk-scale laboratory for completely multiplicative functions.

Everything here is exact, finite arithmetic on sieve arrays: build an f
with prescribed values at primes, measure its partial-sum and log means,
form the companion transforms, and check the pointwise inequalities the
asymptotic theory rests on.  Scales are chosen so a full run takes
seconds; the asymptotic statements themselves are out of reach at desk
scale and are only tracked within generous, named tolerances.

Value convention: an f value at a prime is an angle index ell in
{0, ..., k}: the value e(ell/k) for ell < k, and 0 for the absorbing
index ell = k.  Angle indices are added exactly modulo k along
factorizations; floating point enters only when values are materialized
into sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chi_renewal import extend_chi
from .extremal import _zero_and_mean_grid, find_U

# Largest sieve length: `oracle --y 26800 --n 20000000` peaks at about
# 130 MB resident, set by the int16 angle indices (40 MB) next to the
# spec's 1.27 million primes and the builder's scatter indices (10 MB per
# int64 copy); f is never materialized whole there.
SIEVE_CAP = 2 * 10**7

# Most nodes per chunk of the streamed running sums: their temporaries
# stay near 2 MB at any N, so at the desk N the sums, next to the 2-byte
# angle indices, stay below the build's peak (the angles and the
# builder's copies of the spec's primes).
_BLOCK = 2**16

# Largest order k: build_angles adds two angle indices below k, so each sum
# stays below 2^15 and the int16 angle array holds every index.
MAX_ORDER = 2**14

# default desk scale: y^sqrt(e) for the order-2 construction just fits
DESK_Y = 10**4
DESK_N = 4_000_000


class InfeasibleError(ValueError):
    """A target profile demands class weights outside [0, 1/(k-1)]."""


def _integer_in(x: float, lo: float, hi: float, name: str) -> int:
    """x as an int, checked to be an integer in [lo, hi].

    The range test comes first and compares exactly, so a Python int past
    the float range is rejected here rather than overflowing a float.
    """
    if not (lo <= x <= hi and (isinstance(x, int) or (math.isfinite(x) and x == int(x)))):
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {x}")
    return int(x)


def _cutoff(y: float, t: float, N: int, name: str, exponent: str) -> float:
    """The cutoff y^t for a finite y > 1, checked to be at most N.

    The bound is N (1 + 1e-9), so a cutoff that lands on N up to rounding
    passes; N * 1e-9 < 1 up to SIEVE_CAP, so int(y^t) <= N still.  `name`
    and `exponent` ("y^u" and "u = 1.5") word the messages.
    """
    if not (math.isfinite(y) and y > 1.0):
        raise ValueError(f"y must be finite and > 1, got {y}")
    try:
        x = float(y) ** t
    except OverflowError:
        raise ValueError(f"{name} overflows a float for y = {y}, {exponent}") from None
    if x > N * (1.0 + 1e-9):
        raise ValueError(f"{name} = {x:g} exceeds N = {N} for y = {y}, {exponent}")
    return x


def _odd_prime_mask(N: int) -> np.ndarray:
    """mask[i] tells whether 2i + 1 is prime, for odd 2i + 1 <= N (odd-only Eratosthenes)."""
    mask = np.ones((N + 1) // 2, dtype=bool)
    mask[0] = False
    for i in range(1, (math.isqrt(N) - 1) // 2 + 1):
        if mask[i]:
            p = 2 * i + 1
            mask[p * p // 2 :: p] = False
    return mask


def sieve_primes(N: int) -> np.ndarray:
    """All primes <= N, ascending."""
    N = _integer_in(N, 2, SIEVE_CAP, "N")
    mask = _odd_prime_mask(N)
    mask[0] = True  # the slot of 1 holds 2
    primes = np.flatnonzero(mask)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def smallest_prime_factors(N: int) -> np.ndarray:
    """spf[n] for n <= N (spf[1] = 1); primes satisfy spf[p] = p.

    Each prime p <= sqrt(N) writes itself over its multiples from p^2 on,
    the largest first, so the smallest prime factor writes last.  No
    builder reads this table; it stays a tested public function (the
    recursion reference of the builder tests), and perfbench's tracer
    wraps it by name.
    """
    N = _integer_in(N, 2, SIEVE_CAP, "N")
    spf = np.arange(N + 1, dtype=np.int32)
    if N >= 4:  # below 4 every n is 1 or a prime
        for p in sieve_primes(math.isqrt(N))[::-1]:
            spf[p * p :: p] = p
    return spf


@dataclass(frozen=True, eq=False)
class MultiplicativeSpec:
    """Recipe for a completely multiplicative f with k-th root values.

    `primes` is an ascending integer array of primes in (y, N], and
    `assignment[i]` is the angle index of `primes[i]` (index k for the
    value 0); every other prime carries the value 1.
    """

    k: int
    y: float
    primes: np.ndarray
    assignment: tuple[int, ...]
    N: int
    # the validated assignment as a uint16 array, which build_angles slices
    _ells: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _integer_in(self.k, 2, MAX_ORDER, "order k")
        if not math.isfinite(self.y):
            raise ValueError(f"y must be finite, got {self.y}")
        _integer_in(self.N, 2, SIEVE_CAP, "N")
        p, ells = self.primes, np.asarray(self.assignment)
        if ells.shape != p.shape:
            raise ValueError(f"need one angle index per prime, got {ells.shape} for {p.shape}")
        lo = max(self.y, 1.0)
        if p.dtype.kind not in "iu" or (
            p.size and not (lo < p[0] and p[-1] <= self.N and np.all(p[1:] > p[:-1]))
        ):
            raise ValueError(f"primes must be integers that strictly increase in ({lo}, {self.N}]")
        if ells.size and (ells.dtype.kind not in "iu" or ells.min() < 0 or ells.max() > self.k):
            raise ValueError(f"angle indices must be integers in [0, {self.k}] for order {self.k}")
        object.__setattr__(self, "_ells", ells.astype(np.uint16))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiplicativeSpec):
            return NotImplemented
        fields = (other.k, other.y, other.N, other.assignment)
        same = (self.k, self.y, self.N, self.assignment) == fields
        return same and np.array_equal(self.primes, other.primes)

    def __hash__(self) -> int:
        return hash((self.k, self.y, self.N, self.assignment))


def random_spec(
    k: int, y: float, N: int, seed: int, zero_probability: float = 0.0
) -> MultiplicativeSpec:
    """Uniformly random angle assignment on primes in (y, N]; deterministic per seed."""
    k = _integer_in(k, 2, MAX_ORDER, "order k")
    if not 0.0 <= zero_probability <= 1.0:
        raise ValueError(f"zero_probability must lie in [0, 1], got {zero_probability}")
    rng = np.random.default_rng(seed)
    primes = sieve_primes(N)
    sel = primes[primes > y]
    angles = rng.integers(0, k, size=len(sel))
    zeros = rng.random(len(sel)) < zero_probability
    assignment = tuple(np.where(zeros, k, angles).tolist())
    return MultiplicativeSpec(k=k, y=float(y), primes=sel, assignment=assignment, N=int(N))


def _completely_multiplicative(
    out: np.ndarray, primes: np.ndarray, values: np.ndarray, scale
) -> np.ndarray:
    """out[n] for n >= 1 from its values at primes, in place, by prime-power slices.

    On entry out holds the identity at every n >= 1.  `primes` ascend and
    `values[i]` is the value at primes[i]; a prime left out keeps the
    identity.  A prime P > sqrt(N) divides n at most once and is then its
    largest prime factor, so each m <= sqrt(N) writes out[m P] = value(P)
    in one scatter.  The primes p <= sqrt(N) then follow in descending
    order, each calling scale(view, value(p)) on the slice of every power
    p^j <= N.  So each n takes in its prime factors from the largest down
    to the smallest, with multiplicity: the order of the recursion
    out[n] = out[n / spf(n)] * value(spf(n)) on the smallest prime factor.
    """
    N = len(out) - 1
    split = np.searchsorted(primes, math.isqrt(N), side="right")
    large, at_large = primes[split:], values[split:]
    for m in range(1, N // large[0] + 1 if large.size else 1):
        n = np.searchsorted(large, N // m, side="right")
        out[m * large[:n]] = at_large[:n]
    for p, v in zip(primes[:split][::-1].tolist(), values[:split][::-1].tolist()):
        q = p
        while q <= N:
            scale(out[q::q], v)
            q *= p
    return out


def _roots(k: int) -> np.ndarray:
    """The values of the angle indices 0..k: e(j/k) for j < k, then 0."""
    return np.append(np.exp(2j * np.pi * np.arange(k) / k), 0.0)


def build_angles(spec: MultiplicativeSpec, N: int) -> np.ndarray:
    """The angle index of f(n) for n <= N as an int16 array (index k at n = 0).

    Angle indices add modulo k along factorizations; the value 0 is the
    absorbing index k, so the array is f exactly, at 2 bytes per n.  The
    spec's primes up to N are checked against an odd-only sieve mask,
    which is freed on return.
    """
    N = _integer_in(N, 2, spec.N, "N")
    k = spec.k
    n_keep = np.searchsorted(spec.primes, N, side="right")
    primes, ells = spec.primes[:n_keep], spec._ells[:n_keep]
    slot = primes - 1
    slot >>= 1  # the mask slot of an odd p
    is_prime = _odd_prime_mask(N)[slot]
    is_prime &= np.bitwise_and(primes, 1, out=slot) == 1
    is_prime |= primes == 2
    if not is_prime.all():
        raise ValueError(f"spec entry {primes[np.argmin(is_prime)]} is not a prime")
    turned = ells != 0

    def add_angle(a: np.ndarray, ell: int) -> None:
        if ell == k:
            a[...] = k
            return
        s = a + np.uint16(ell)
        np.minimum(s, s - np.uint16(k), out=s)  # s - k wraps above s while s < k
        np.copyto(a, s, where=a != k)

    out = np.zeros(N + 1, dtype=np.int16)
    out[0] = k
    _completely_multiplicative(out.view(np.uint16), primes[turned], ells[turned], add_angle)
    return out


def build_f(spec: MultiplicativeSpec, N: int) -> np.ndarray:
    """f(n) for n <= N as a complex array (f[0] = 0), 16 bytes per n.

    The roots indexed by build_angles(spec, N): callers that only sum f
    (spec_tracking_rows) read the angle array block by block instead.
    """
    return _roots(spec.k)[build_angles(spec, N)]


def build_g(f: np.ndarray) -> np.ndarray:
    """Companion transform: completely multiplicative g with g(p) = |1 + f(p)| - 1 on n < len(f)."""
    return _primes_and_g(f, len(f) - 1)[1]


def _primes_and_g(f: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes <= n and g = build_g(f[: n + 1]) on them by prime-power slices.

    Primes with g(p) = 1 are skipped (x * 1.0 == x), so at the desk only
    the primes past y, where f(p) != 1, are scattered or sliced.
    """
    primes = sieve_primes(n)
    at_prime = f[primes]
    at_prime += 1.0  # in place: one complex temporary, not two
    at_prime = np.abs(at_prime)
    at_prime -= 1.0
    moved = at_prime != 1.0
    g = np.ones(n + 1)
    g[0] = 0.0
    _completely_multiplicative(
        g, primes[moved], at_prime[moved], lambda a, v: np.multiply(a, v, out=a)
    )
    return primes, g


def _clamp_n_max(n_max: int, f: np.ndarray, lo: int = 1) -> int:
    """n_max, checked to be an integer >= 1, cut to the last index of f, and checked to reach lo."""
    n = min(_integer_in(n_max, 1, math.inf, "n_max"), len(f) - 1)
    if n < lo:
        raise ValueError(f"n_max must be at least {lo} in the f range {len(f) - 1}, got {n_max}")
    return n


def _dirichlet(a: np.ndarray, b: np.ndarray, n_max: int) -> np.ndarray:
    """Dirichlet convolution: sum over de = n of a[d] b[e], for n <= n_max.

    Dirichlet's hyperbola split at s = isqrt(n_max): one slice per d <= s,
    then one per e with d > s, e descending, so each sum still adds its
    terms in ascending d.
    """
    out = np.zeros(n_max + 1, dtype=np.result_type(a, b))
    s = math.isqrt(n_max)
    for d in range(1, s + 1):
        out[d::d] += a[d] * b[1 : n_max // d + 1]
    for e in range(n_max // (s + 1), 0, -1):
        out[e * (s + 1) :: e] += a[s + 1 : n_max // e + 1] * b[e]
    return out


def _repeated(bad: np.ndarray, n_max: int) -> np.ndarray:
    """Mask of n <= n_max divisible by p^2 for some p in the ascending bad, and of n = 0."""
    out = np.zeros(n_max + 1, dtype=bool)
    out[0] = True
    for p in bad.tolist():
        if p * p > n_max:
            break
        out[p * p :: p * p] = True
    return out


def divisor_correlation(f: np.ndarray, n_max: int) -> np.ndarray:
    """h(n) = sum over ab = n of f(a) conj(f(b)), for n <= n_max."""
    n_max = _clamp_n_max(n_max, f)
    return _dirichlet(f, np.conj(f[: n_max + 1]), n_max)


def _step_value(cum: np.ndarray, count, u: float | np.ndarray) -> float | np.ndarray:
    """cum[count(u) - 1] at a finite u, where count(u) jump points lie at or below u (0 if none)."""
    u_arr = np.asarray(u, dtype=float)
    finite = np.isfinite(u_arr)
    if not np.all(finite):
        raise ValueError(f"u must be finite, got {u_arr[~finite][0]}")
    idx = count(u_arr)
    out = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
    return float(out) if np.ndim(u) == 0 else out


@dataclass(frozen=True, eq=False)
class StepProfile:
    """Right-continuous step function: cum[j] holds the value from points[j] on.

    The points are float64 (integers up to the sieve cap are exact), so a
    float query searches them without a cast copy of the whole array.
    """

    points: np.ndarray
    cum: np.ndarray

    def value(self, u: float | np.ndarray) -> float | np.ndarray:
        return _step_value(self.cum, lambda v: np.searchsorted(self.points, v, side="right"), u)


@dataclass(frozen=True, eq=False)
class IntegerStepProfile:
    """StepProfile on the points 1, ..., len(cum), which it does not store.

    Exactly floor(u) clipped to [0, len(cum)] of those points lie at or
    below a finite u, so that count replaces the search.
    """

    cum: np.ndarray

    def value(self, u: float | np.ndarray) -> float | np.ndarray:
        n = len(self.cum)
        return _step_value(self.cum, lambda v: np.clip(np.floor(v), 0, n).astype(np.intp), u)


@dataclass(frozen=True, eq=False)
class TransformBundle:
    """g, h, and the two running profiles derived from one f array."""

    g_values: np.ndarray
    h_values: np.ndarray
    deficiency: StepProfile  # running sum of (1 - g(p))/p over primes
    partial_sum: IntegerStepProfile  # running sum of g(n)


def transforms(f: np.ndarray, N: int, h_max: int | None = None) -> TransformBundle:
    """All companion quantities of f in one pass.

    The primes come from one sieve and g (the g of build_g(f[: N + 1]))
    from their prime-power slices.
    h is the divisor correlation (cost n log n, so cap it with h_max when
    only small n matter); the deficiency profile jumps at primes, the
    partial-sum profile at every integer, and it keeps only its running
    sums (8 bytes per n, as g does), not the integers it jumps at.
    """
    N = _integer_in(N, 2, len(f) - 1, "N")
    if h_max is not None:
        _integer_in(h_max, 1, math.inf, "h_max")
    primes, g = _primes_and_g(f, N)
    h = divisor_correlation(f, h_max if h_max is not None else N)
    deficiency = StepProfile(
        points=primes.astype(float),
        cum=np.cumsum((1.0 - g[primes]) / primes),
    )
    partial = IntegerStepProfile(cum=np.cumsum(g[1:]))
    return TransformBundle(g_values=g, h_values=h, deficiency=deficiency, partial_sum=partial)


def divisor_domination_check(f: np.ndarray, n_max: int) -> int:
    """Count n <= n_max where |sum_{d|n} f(d)| exceeds sum_{d|n} g(d).

    Only n free of squares of "bad" primes (those with f(p) != 1) are in
    scope; the inequality is claimed there and the count should be 0.
    """
    n_max = _clamp_n_max(n_max, f, 2)
    primes, g = _primes_and_g(f, n_max)
    ones = np.ones(n_max + 1)
    f_div = _dirichlet(f, ones, n_max)
    g_div = _dirichlet(g, ones, n_max)
    excluded = _repeated(primes[np.abs(f[primes] - 1.0) > 1e-12], n_max)
    violations = (np.abs(f_div) > g_div + 1e-9) & ~excluded
    return int(np.sum(violations))


def sandwich_check(g: np.ndarray, n_max: int) -> float:
    """Max defect of 1 - S1 <= g(n) <= 1 - S1 + (S1^2 - S2)/2 on clean n.

    S1 and S2 are the first two power sums of (1 - g(p)) over primes
    dividing n; n with a repeated bad prime (g(p) != 1) are excluded.
    Returns the worst violation of either side, floored at 0.
    """
    n_max = _clamp_n_max(n_max, g, 2)
    primes = sieve_primes(n_max)
    bad = primes[g[primes] != 1.0]
    s1 = np.zeros(n_max + 1)
    s2 = np.zeros(n_max + 1)
    for p in bad.tolist():
        c = 1.0 - g[p]
        s1[p::p] += c
        s2[p::p] += c * c
    gn = g[: n_max + 1]
    lower = (1.0 - s1) - gn
    upper = gn - (1.0 - s1 + 0.5 * (s1 * s1 - s2))
    worst = np.maximum(lower, upper)
    worst[_repeated(bad, n_max)] = -np.inf
    return float(max(0.0, np.max(worst)))


def empirical_chi(f: np.ndarray, y: float, u: float) -> complex:
    """Log-weighted prime average of f up to y^u."""
    if not (math.isfinite(u) and u > 0.0):
        raise ValueError(f"u must be finite and positive, got {u}")
    primes = sieve_primes(int(_cutoff(y, float(u), len(f) - 1, "y^u", f"u = {u}")))
    logs = np.log(primes)
    return complex(np.sum(f[primes] * logs) / np.sum(logs))


@dataclass(frozen=True)
class MeanValueReport:
    """Partial-sum and log means of f at one cutoff."""

    x: float
    partial_sum_over_x: complex
    log_mean: complex

    def check(self) -> bool:
        """Trivial-size bounds: |partial| <= 1, |log mean| <= 1 + 1/log x (to 1e-9)."""
        return (
            abs(self.partial_sum_over_x) <= 1.0 + 1e-9
            and abs(self.log_mean) <= 1.0 + 1.0 / math.log(self.x) + 1e-9
        )


def mean_values(f: np.ndarray, x: float) -> MeanValueReport:
    """Exact finite means of f over n <= x."""
    N = len(f) - 1
    if not 2.0 <= x <= N:
        raise ValueError(f"cutoff must lie in [2, {N}], got {x}")
    n = int(x)
    vals = f[1 : n + 1]
    partial = complex(np.sum(vals) / x)
    log_mean = complex(np.sum(vals / np.arange(1, n + 1)) / math.log(x))
    return MeanValueReport(x=float(x), partial_sum_over_x=partial, log_mean=log_mean)


def construct_tracking_spec(
    k: int, delta: float, y: float, A: float, N: int
) -> MultiplicativeSpec:
    """Partition primes so the empirical profile tracks the delta target.

    Each prime p in (y, y^{A U}] at exponent t = log p / log y belongs to
    class 0 with weight 1 - (k-1) alpha(t) and to each other class with
    weight alpha(t) = (1 - chi(t))/k, where chi is the dip profile up to
    its first zero U and the mean-preserving extension beyond.  Greedy
    largest-deficit-first assignment on log-prime weight keeps every
    class's running sum within one prime gap of its target.  Where class
    0 never leads, as at the table drifts delta = 1/(k-1) up to U, that
    greedy is a rotation of classes 1..k-1, checked in one numpy pass;
    the per-prime loop runs only from the first step the check rejects.
    """
    k = _integer_in(k, 2, MAX_ORDER, "order k")
    N = _integer_in(N, 2, SIEVE_CAP, "N")
    U = find_U(delta)
    if not (math.isfinite(A) and A > 0.0):
        raise ValueError(f"A must be finite and positive, got {A}")
    t_end = A * U
    x_end = _cutoff(y, t_end, N, "y^(A U)", f"A = {A}")

    # the sieve stops at the largest cutoff, not at N
    primes = sieve_primes(int(x_end)) if x_end >= 2.0 else np.zeros(0, dtype=np.intp)
    sel = primes[np.searchsorted(primes, y, side="right") :]
    if sel.size == 0:
        raise ValueError(f"A = {A} leaves no prime in (y, y^(A U)] = ({y:g}, {x_end:g}]")
    logs = np.log(sel)
    t = logs / math.log(y)

    chi_vals = np.full(len(sel), -delta)
    beyond = t > U
    if np.any(beyond):
        ext = extend_chi(delta, t_max=t_end)
        chi_vals[beyond] = ext.value(t[beyond])
    alpha = (1.0 - chi_vals) / k
    cap = 1.0 / (k - 1)
    if alpha.min() < -1e-12 or alpha.max() > cap + 1e-12:
        raise InfeasibleError(
            f"class weight range [{alpha.min():.6f}, {alpha.max():.6f}] "
            f"escapes [0, {cap:.6f}] for order {k}"
        )
    alpha = np.clip(alpha, 0.0, cap)

    assignment = tuple(_greedy_classes(logs, alpha, k))
    return MultiplicativeSpec(k=k, y=float(y), primes=sel, assignment=assignment, N=N)


def _greedy_classes(logs: np.ndarray, alpha: np.ndarray, k: int) -> list[int]:
    """Largest-deficit-first class of each prime, ties to the lowest index.

    Prime i adds (1 - (k-1) alpha_i) w_i to class 0's running target and
    alpha_i w_i to every other class's, so classes 1..k-1 share one target
    t.  As in a length-k argmax loop, class j >= 1 wins only on a gap
    t - a_j (a_j its assigned weight) strictly above class 0's, and then
    the lowest index among the largest gaps does.  Rounding is monotone,
    so that is the top of a heap keyed on (a_j, j); classes still at
    weight 0 enter it one at a time (`fresh`), so no tie hides among
    them.  Two distinct weights round to one gap only where t - a is
    inexact, which Sterbenz's lemma rules out while t/2 <= a < 2t for the
    least weight a (a weight b > 2t has a gap of at most -t < t - a).  Outside
    that range, if the next entry's gap ties too, every entry is read and
    the lowest tied index wins.  A prime costs O(log k), not k gaps.

    Where class 0 never leads, the loop is list scheduling in rotation:
    with r = k-1, prime i goes to c_i = 1 + (i mod r).  `_rotation_prefix`
    checks that schedule step by step on the loop's own doubles and the
    loop resumes at the first step s it rejects, with both targets after
    step s-1, class 0 at weight 0.0, and in the heap the last r weights
    (s >= r) or classes 1..s plus the fresh class s+1 at 0.0 (s < r).
    The loop reads the heap's top, its second entry and, on a tie, every
    entry, so any heap order of those entries resumes it exactly.  At the
    table drifts delta = 1/(k-1) the check accepts every prime (277,651
    for `oracle`'s default, in 0.006 s against the loop's 0.07 s); past U,
    where alpha moves, the loop takes over.
    """
    import heapq  # deferred: every command imports this module, one uses heapq

    r = k - 1
    s, target0, target1, loads = _rotation_prefix(logs, alpha, k)
    classes = list(range(1, k)) * (s // r) + list(range(1, s % r + 1))
    if s == len(logs):
        return classes
    # loads[j] is class 1 + (s+j) mod r's weight, 0.0 if not yet picked;
    # of those, the loop's heap holds only the fresh one (j = 0)
    heap = [(float(loads[j]), 1 + (s + j) % r) for j in range(r) if j == 0 or j >= r - s]
    heapq.heapify(heap)
    fresh, assigned0 = min(s + 1, r), 0.0
    for w, a in zip(memoryview(logs[s:]), memoryview(alpha[s:])):
        target0 += (1.0 - (k - 1) * a) * w
        target1 += a * w
        low, ell = heap[0]
        best = target1 - low
        if not best > target0 - assigned0:
            assigned0 += w
            ell = 0
        elif (
            0.5 * target1 <= low < 2.0 * target1
            or target1 - min(heap[1:3], default=(math.inf,))[0] < best
        ):
            heapq.heapreplace(heap, (low + w, ell))
        else:
            low, ell = min((e for e in heap if target1 - e[0] == best), key=lambda e: e[1])
            heap[heap.index((low, ell))] = (low + w, ell)
            heapq.heapify(heap)
        if ell == fresh < k - 1:
            fresh += 1
            heapq.heappush(heap, (0.0, fresh))
        classes.append(ell)
    return classes


def _rotation_prefix(
    logs: np.ndarray, alpha: np.ndarray, k: int
) -> tuple[int, float, float, np.ndarray]:
    """How many leading steps of `_greedy_classes`' loop are the rotation.

    Returns that count s, the loop's two targets after step s-1 and the
    weights of the classes picked at steps s-r..s-1 (0.0 before step 0).
    Step i of the rotation gives class c_i = 1 + (i mod r), r = k-1, the
    weight after_i = after_{i-r} + w_i, so c_i's weight before it is
    low_i = after_{i-r} (0.0 for i < r).  Step i is accepted when all
    earlier ones are and
      (a) t1_i - low_i > t0_i: class 0, still at weight 0.0, loses;
      (b) for k >= 3, after_i > after_{i-1} (after_{-1} = 0.0): the
          weights of the last r picks increase strictly along the
          rotation, so its next class is the unique least-weighted one;
      (c) for k >= 3, t1_i/2 <= low_i < 2 t1_i or t1_i - second_i <
          t1_i - low_i, second_i = after_{max(i+1-r, 0)} (+inf at i = 0)
          being the heap's second entry: the loop takes its heap-top
          branch, not the tie scan.
    Every sum is the loop's own double: the targets t0, t1 and the
    weights are `np.cumsum`s (add.accumulate adds in order) of the loop's
    increments, the weights down columns of a (rows, r) grid, one class
    per column.  Chunks of at most _BLOCK steps carry the sums between
    them, so a rejection at step s costs O(min(s, _BLOCK)).
    """
    r = k - 1
    target0 = target1 = 0.0
    loads = np.zeros(r)
    for lo in range(0, len(logs), _BLOCK):
        w, a = logs[lo : lo + _BLOCK], alpha[lo : lo + _BLOCK]
        m = len(w)
        c0 = np.cumsum(np.concatenate(([target0], (1.0 - r * a) * w)))
        c1 = np.cumsum(np.concatenate(([target1], a * w)))
        t0, t1 = c0[1:], c1[1:]
        # row 0 carries the weights; column j holds steps lo+j, lo+j+r, ...
        grid = np.zeros((-(-m // r) + 1, r))
        grid[0] = loads
        grid[1:].reshape(-1)[:m] = w
        flat = np.cumsum(grid, axis=0, out=grid).reshape(-1)  # after_i at r + i - lo
        low = flat[:m]
        ok = t1 - low > t0
        if r > 1:
            second = flat[1 : m + 1].copy()
            if lo == 0:
                second[:r] = flat[r]
                second[0] = np.inf
            ok &= flat[r : r + m] > flat[r - 1 : r - 1 + m]
            ok &= ((0.5 * t1 <= low) & (low < 2.0 * t1)) | (t1 - second < t1 - low)
        s = int(np.argmin(ok))
        if not ok[s]:
            return lo + s, float(c0[s]), float(c1[s]), flat[s : s + r]
        target0, target1, loads = float(c0[m]), float(c1[m]), flat[m : m + r]
    return len(logs), target0, target1, loads


@dataclass(frozen=True)
class TrackRow:
    """One cutoff of a construction-vs-target comparison."""

    u: float
    x: float
    partial_sum: complex
    log_mean: complex
    target: float
    deviation: float


def tracking_rows(
    f: np.ndarray, y: float, delta: float, u_values: list[float]
) -> list[TrackRow]:
    """Measured means of the array f at x = y^u against the delta-profile target.

    The target is the dip solution for u <= U and 0 beyond; deviation is
    the distance of the partial-sum mean from it.  The running sums stop
    at the largest cutoff and stream f in chunks of at most _BLOCK
    entries, so their working memory does not grow with N.
    """
    u_values, xs = _tracking_cutoffs(y, u_values, len(f) - 1)
    return _tracking_rows(lambda lo, hi: f[lo:hi].copy(), u_values, xs, delta)


def spec_tracking_rows(
    spec: MultiplicativeSpec, delta: float, u_values: list[float]
) -> list[TrackRow]:
    """tracking_rows(build_f(spec, spec.N), spec.y, delta, u_values), bit for bit.

    f stays the int16 angle array (2 bytes per n, not 16) and each chunk
    of the running sums indexes the roots; an indexed root is the same
    double as the entry of build_f's array.  The array stops at the
    largest cutoff floor(y^u): f(n) depends only on the factorization of n.
    """
    u_values, xs = _tracking_cutoffs(spec.y, u_values, spec.N)
    ell = build_angles(spec, max(int(max(xs, default=0.0)), 2))
    roots = _roots(spec.k)
    return _tracking_rows(lambda lo, hi: np.take(roots, ell[lo:hi]), u_values, xs, delta)


def _tracking_cutoffs(y: float, u_values: list[float], N: int) -> tuple[list[float], list[float]]:
    """The exponents u as floats, each finite and positive, and their
    cutoffs y^u, the largest checked by _cutoff (y also on an empty list)."""
    u_values = [float(u) for u in u_values]
    for u in u_values:
        if not (math.isfinite(u) and u > 0.0):
            raise ValueError(f"u must be finite and positive, got {u}")
    u_top = max(u_values, default=0.0)
    _cutoff(y, u_top, N, "y^u", f"u = {u_top}")
    return u_values, [float(y) ** u for u in u_values]


def _tracking_rows(block, u_values: list[float], xs: list[float], delta: float) -> list[TrackRow]:
    """The rows of tracking_rows at the checked cutoffs xs = y^u for the f
    whose values on [lo, hi) are block(lo, hi), a fresh array that the
    plain running sum overwrites."""
    if not u_values:
        return []
    U, grid = _zero_and_mean_grid(delta)
    target_at = grid.value_cubic
    # running sums from one cutoff to the next, in ascending order and in
    # chunks of at most _BLOCK, each read from block() once: the carry
    # added to each chunk's first element keeps each sum sequential, so it
    # equals the entry of np.cumsum over all of f bit for bit
    sums = {}
    n_done, s, s_div = 0, 0j, 0j
    for n in sorted({int(x) for x in xs}):
        for lo in range(n_done, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            vals = block(lo + 1, hi + 1)
            # f(n) times 1/n, which is how numpy divides a complex by a
            # real n, with no complex division and no integer temporary
            inv = np.arange(lo + 1, hi + 1, dtype=float)
            run = vals * np.divide(1.0, inv, out=inv)
            if lo:
                run[0] += s_div
            s_div = np.cumsum(run, out=run)[-1]
            if lo:
                vals[0] += s
            s = np.cumsum(vals, out=vals)[-1]
        n_done = n
        sums[n] = s, s_div
    rows = []
    for u, x in zip(u_values, xs):
        s, s_div = sums[int(x)]
        partial = complex(s / x)
        log_mean = complex(s_div / math.log(x))
        target = float(target_at(u)) if u <= U else 0.0
        rows.append(
            TrackRow(
                u=u,
                x=x,
                partial_sum=partial,
                log_mean=log_mean,
                target=target,
                deviation=abs(partial - target),
            )
        )
    return rows


def mobius(n: int) -> int:
    """Moebius function by trial division, for n up to SIEVE_CAP."""
    n = _integer_in(n, 1, SIEVE_CAP, "n")
    count = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            count += 1
        d += 1
    if n > 1:
        count += 1
    return -1 if count % 2 else 1


def totient(n: int) -> int:
    """Euler phi by trial division, for n up to SIEVE_CAP."""
    n = _integer_in(n, 1, SIEVE_CAP, "n")
    result = n
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


def coprime_power_sum(k: int, l: int) -> tuple[complex, float]:
    """Sum of e(j/l) over j <= k coprime to k, and its closed form.

    The closed form is mobius(l) totient(k) / totient(l); the pair is
    returned so tests can compare the brute sum against it.
    """
    k = _integer_in(k, 1, MAX_ORDER, "k")
    l = _integer_in(l, 1, k, "l")
    if k % l != 0:
        raise ValueError(f"need l | k, got k={k}, l={l}")
    js = np.flatnonzero(np.gcd(np.arange(1, k + 1), k) == 1) + 1
    lhs = complex(np.sum(np.exp(2j * np.pi * js / l)))
    rhs = mobius(l) * totient(k) / totient(l)
    return lhs, float(rhs)
