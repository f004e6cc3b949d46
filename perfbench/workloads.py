"""The three benchmark workloads and their seeded inputs.

Each workload is a fixed list of paper commands plus, for every seed other
than DEFAULT_SEED, a few extra operations drawn from the documented valid
domain.  Drawing needs no call into the package: every domain edge used
here is either a plain interval or a closed form (U = exp(1/(1+delta)) for
delta >= 1/log 2 - 1), so the program under test receives only generated
inputs and the benchmark process stays cold.

An operation is either a command line (run through ``extremal_means.cli.main``)
or a named library call from LIBRARY_CALLS; both produce text on stdout.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0

# closed-branch threshold of find_U: 1/log(2) - 1
CLOSED_FORM_DELTA = 1.0 / math.log(2.0) - 1.0

# documented seeded domains
# (lo, hi]; the top stays where find_U(delta_for_U(u)) returns u to the
# 1e-9 round-trip gate: delta_for_U stops its bisection at an absolute
# 1e-12 in delta, and the round trip misses 1e-9 from u ~ 5.75 up (1e-6
# at u = 8; see the README, Known defect)
UDELTA_U_RANGE = (3.0, 5.0)
UDELTA_DELTA_RANGE = (0.02, 0.44)  # [lo, hi)
RENEWAL_DELTA_RANGE = (0.1, 1.0)  # [lo, hi]
SIEVE_N_MAX = 4_000_000  # the desk scale; seeded draws stay below it
SIEVE_N = 2_000_000  # seeded sieve length: half the desk scale keeps passes short
SIEVE_X_END_RANGE = (1_500_000, 2_000_000)  # y^U, the top of the tracked range
SIEVE_DELTA_LO = 0.45  # keeps U in closed form


@dataclass(frozen=True)
class Op:
    """One user operation.

    `kind` is "cli" (argv for the command line) or "lib" (a LIBRARY_CALLS
    name with keyword arguments in `params`).  `check` is "reference" for a
    fixed operation, compared byte for byte against stored reference
    output; a seeded operation names the invariant applied to it instead.
    """

    id: str
    kind: str
    argv: tuple[str, ...] = ()
    params: tuple[tuple[str, float | int], ...] = ()
    check: str = "reference"

    def value(self, name: str) -> float:
        """The number a seeded command line passes as `--name`."""
        return float(self.argv[self.argv.index(f"--{name}") + 1])


def _cli(op_id: str, *argv: str) -> Op:
    return Op(id=op_id, kind="cli", argv=tuple(argv))


PAPER_TABLES_FIXED = (
    _cli("table-u", "table", "--grid", "u"),
    _cli("table-k", "table", "--grid", "k"),
    _cli("table-k40", "table", "--grid", "k", "--kmax", "40"),
    _cli("constants", "constants"),
    _cli("dickman-5", "dickman", "--u", "5"),
    _cli("sigma-0.3", "sigma", "--delta", "0.3", "--u-max", "6"),
    _cli("udelta-u4", "udelta", "--u", "4"),
    _cli("udelta-u5", "udelta", "--u", "5"),
    _cli("udelta-u8", "udelta", "--u", "8"),
    _cli("udelta-d0.05", "udelta", "--delta", "0.05"),
)

RENEWAL_FIXED = (
    _cli("chi-extend-1.0", "chi-extend", "--delta", "1.0"),
    _cli("chi-extend-0.44", "chi-extend", "--delta", "0.44"),
    _cli("chi-extend-0.2", "chi-extend", "--delta", "0.2"),
    _cli("chi-extend-0.1", "chi-extend", "--delta", "0.1"),
    _cli("chi-extend-0.3-h5e-5", "chi-extend", "--delta", "0.3", "--h", "5e-5"),
    Op(id="vanishing-0.2", kind="lib", params=(("delta", 0.2), ("horizon", 3.0))),
)

SIEVE_LAB_FIXED = (
    _cli("oracle-default", "oracle"),
    _cli("oracle-k3", "oracle", "--k", "3", "--delta", "0.5", "--y", "1e3", "--n", "1000000"),
    Op(
        id="pipeline-2e6",
        kind="lib",
        params=(("k", 3), ("y", 1000.0), ("N", 2_000_000), ("seed", 7), ("h_max", 16)),
    ),
)


def _num(x: float) -> str:
    """Command-line spelling of a drawn number: 6 significant digits."""
    return f"{x:.6g}"


def _grid_draw(rng: random.Random, lo: float, hi: float, step: float = 1e-5) -> float:
    """Uniform draw from lo, lo + step, ..., hi (a grid, so it prints exactly)."""
    return round(lo + rng.randrange(round((hi - lo) / step) + 1) * step, 5)


def _draw_paper_tables(rng: random.Random) -> list[Op]:
    u_lo, u_hi = UDELTA_U_RANGE
    u = _grid_draw(rng, u_lo + 1e-5, u_hi)  # (lo, hi]
    d_lo, d_hi = UDELTA_DELTA_RANGE
    d = _grid_draw(rng, d_lo, d_hi - 1e-5)  # [lo, hi)
    return [
        Op(id="seed-udelta-u", kind="cli", argv=("udelta", "--u", _num(u)), check="round-trip-u"),
        Op(id="seed-udelta-delta", kind="cli", argv=("udelta", "--delta", _num(d)), check="round-trip-delta"),
    ]


def _draw_renewal(rng: random.Random) -> list[Op]:
    d = _grid_draw(rng, *RENEWAL_DELTA_RANGE)
    return [Op(id="seed-chi-extend", kind="cli", argv=("chi-extend", "--delta", _num(d)), check="extension")]


def sieve_draw_feasible(k: int, delta: float, y: float, n: int) -> bool:
    """The documented sieve domain: delta <= 1/(k-1), y^U <= N <= 4e6."""
    if k < 2 or not 0.0 < delta <= 1.0 / (k - 1) or n > SIEVE_N_MAX or y <= 1.0:
        return False
    if delta < CLOSED_FORM_DELTA:
        return False  # outside the closed branch the generator cannot place y
    u = math.exp(1.0 / (1.0 + delta))
    return y**u <= n


def _draw_sieve_lab(rng: random.Random) -> list[Op]:
    k = rng.choice((2, 3))
    cap = 1.0 / (k - 1)
    delta = _grid_draw(rng, SIEVE_DELTA_LO, cap)
    u = math.exp(1.0 / (1.0 + delta))
    x_lo, x_hi = SIEVE_X_END_RANGE
    x_end = x_lo + rng.random() * (x_hi - x_lo)
    # round y down so y^U stays at or below the sieve limit
    y = float(_num(x_end ** (1.0 / u)))
    while y**u > SIEVE_N:
        y = float(_num(y * (1.0 - 1e-5)))
    if not sieve_draw_feasible(k, delta, y, SIEVE_N):
        raise RuntimeError(f"infeasible sieve draw k={k} delta={delta} y={y}")
    return [
        Op(
            id="seed-oracle",
            kind="cli",
            argv=("oracle", "--k", str(k), "--delta", _num(delta), "--y", _num(y), "--n", str(SIEVE_N)),
            check="oracle-rebuild",
        )
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fixed: tuple[Op, ...]
    draw: Callable[[random.Random], list[Op]]

    def ops(self, seed: int) -> list[Op]:
        """Fixed paper commands, plus seeded draws unless seed is the default."""
        ops = list(self.fixed)
        if seed != DEFAULT_SEED:
            ops += self.draw(random.Random(f"{self.name}:{seed}"))
        return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-tables",
            "many short delay-equation marches, zero searches and small quadratures",
            PAPER_TABLES_FIXED,
            _draw_paper_tables,
        ),
        Workload(
            "renewal",
            "a few long O(n^2) renewal and Volterra marches past the first zero",
            RENEWAL_FIXED,
            _draw_renewal,
        ),
        Workload(
            "sieve-lab",
            "integer, memory-heavy sieve arrays (8-64 MB) and the greedy tracking assignment",
            SIEVE_LAB_FIXED,
            _draw_sieve_lab,
        ),
    )
}


# ------------------------------------------------------------ library calls
#
# These run inside a forked child, so they import the package lazily and
# look functions up on their modules at call time (which is where the
# tracer rebinds them).


def vanishing(delta: float, horizon: float) -> str:
    """verify_sigma_vanishes(extend_chi(delta), horizon * U) as one call."""
    from extremal_means import chi_renewal

    ext = chi_renewal.extend_chi(delta)
    defect = chi_renewal.verify_sigma_vanishes(ext, horizon * ext.U)
    return f"U = {ext.U:.10g}\nmax |mean| past U = {defect:.4g}\n"


def pipeline(k: int, y: float, N: int, seed: int, h_max: int) -> str:
    """random_spec -> build_f -> transforms, summarized at a few cutoffs."""
    import numpy as np

    from extremal_means import oracle

    spec = oracle.random_spec(k, y, N, seed)
    f = oracle.build_f(spec, N)
    bundle = oracle.transforms(f, N, h_max=h_max)
    cuts = [10**3, 10**4, 10**5, 10**6, N]
    lines = [f"primes assigned = {len(spec.assignment)}"]
    lines.append(f"sum f = {complex(np.sum(f[1:])):.10g}")
    lines.append(f"sum g = {float(np.sum(bundle.g_values[1:])):.10g}")
    for x in cuts:
        lines.append(
            f"x = {x}: partial g = {bundle.partial_sum.value(float(x)):.10g}, "
            f"deficiency = {bundle.deficiency.value(float(x)):.10g}"
        )
    lines.append("h = " + " ".join(f"{complex(v):.8g}" for v in bundle.h_values[1:]))
    return "\n".join(lines) + "\n"


LIBRARY_CALLS = {"vanishing": vanishing, "pipeline": pipeline}


def library_call(op: Op) -> str:
    """Dispatch a lib operation by its id prefix."""
    name = op.id.split("-", 1)[0]
    return LIBRARY_CALLS[name](**dict(op.params))
