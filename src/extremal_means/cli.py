"""Command line front end.

One subcommand per module capability: point values (dickman, udelta),
grid dumps (sigma, chi-extend), the two summary tables, the named
constants, the sieve experiment, and the self-check suite.  All output
is plain text with significant-digit formatting and no locale
dependence, so fixed flags give byte-identical bytes across runs.

Exit codes: 0 success, 1 verification failure, 2 usage, domain or output
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import constants, dickman, oracle, verification
from .chi_renewal import extend_chi
from .extremal import (
    TABLE_COLUMNS,
    RootNotFoundError,
    TableRow,
    delta_for_U,
    find_U,
    table_by_first_zero,
    table_by_order,
)
from .sigma import sigma_dde

FORMATS = ("csv", "json", "markdown")

# Most rows one grid dump (sigma, chi-extend, oracle --u-step) may print.
MAX_ROWS = 100_000

_MIN_DIGITS, _MAX_DIGITS = 6, 15


def fmt_sig(x: float, digits: int = 10) -> str:
    """Significant-digit scalar: '%.{d}g' with round-half-even."""
    return f"{float(x):.{digits}g}"


def fmt_table(x: float, digits: int) -> str:
    """Fixed-width table cell: round to `digits` significant figures,
    then re-pad so trailing zeros survive (0.7213475205 at 9 digits must
    print 0.721347520, not 0.72134752)."""
    rounded = float(f"{float(x):.{digits}g}")
    if rounded == 0.0:
        decimals = digits - 1
    else:
        decimals = digits - 1 - math.floor(math.log10(abs(rounded)))
    return f"{rounded:.{max(decimals, 0)}f}"


def _fmt_key(x: float) -> str:
    """Key column: shortest repr after clearing float noise (2.0, 1.7,
    1.6487212707)."""
    return repr(round(float(x), 10))


def _check_digits(digits: int) -> int:
    if not _MIN_DIGITS <= digits <= _MAX_DIGITS:
        raise ValueError(f"digits must lie in [{_MIN_DIGITS}, {_MAX_DIGITS}], got {digits}")
    return digits


def _check_rows(span: float, step: float) -> None:
    """Refuse a grid of more than MAX_ROWS rows before it is built."""
    if not span / step <= MAX_ROWS:
        raise ValueError(f"step {step} over a span of {span} gives more than {MAX_ROWS} rows")


def _render_rows(header: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(r) for r in rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {"rows": [dict(zip(header, r)) for r in rows]}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "markdown":
        lines = [
            "| " + " | ".join(header) + " |",
            "|" + "|".join(" --- " for _ in header) + "|",
        ]
        lines += ["| " + " | ".join(r) + " |" for r in rows]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


# ----------------------------------------------------------------- tables


def render_table(grid: str, fmt: str = "csv", digits: int | None = None, kmax: int = 17) -> str:
    """The two summary tables; `digits` defaults to the source precision
    (9 significant figures for the u grid, 10 for the k grid)."""
    if grid == "u":
        digits = _check_digits(9 if digits is None else digits)
        rows, fmt_key = table_by_first_zero(), _fmt_key
    elif grid == "k":
        digits = _check_digits(10 if digits is None else digits)
        rows, fmt_key = table_by_order(kmax), str
    else:
        raise ValueError(f"grid must be 'u' or 'k', got {grid!r}")
    columns = TABLE_COLUMNS[grid]

    def cells(row: TableRow) -> list[str]:
        key, *values = (getattr(row, field) for _, field in columns)
        return [fmt_key(key)] + ["" if v is None else fmt_table(v, digits) for v in values]

    return _render_rows([col for col, _ in columns], [cells(r) for r in rows], fmt)


def render_constants(which: str = "all") -> str:
    """Named constants, one line per group.  Values are the computed
    ones at 10 significant figures."""
    lines: list[str] = []
    if which in ("all", "c2"):
        lines.append(f"c2 = {fmt_sig(constants.order_constant(2).value)}")
    if which in ("all", "c3"):
        lines.append(f"c3 = {fmt_sig(constants.order_constant(3).value)}")
    if which in ("all", "c4"):
        c4 = constants.order_constant(4)
        lines.append(f"c4 = {fmt_sig(c4.value)}, A0 = {fmt_sig(c4.argmin_or_max)}")
    if which in ("all", "sec4"):
        disc = constants.unit_disc_bounds()
        lines.append(f"A* = {fmt_sig(disc.A_star)}, B* = {fmt_sig(disc.B_star)}")
    if which in ("all", "thm3"):
        avg = constants.optimize_average_bound()
        lines.append(f"c* = {fmt_sig(avg.c_star)}, K = {fmt_sig(avg.K)} (< 43/15)")
    if not lines:
        raise ValueError(f"unknown constant group {which!r}")
    return "\n".join(lines) + "\n"


def render_sigma_grid(delta: float, u_max: float, step: float, fmt: str, digits: int) -> str:
    _check_digits(digits)
    if not 0.0 < u_max < math.inf:
        raise ValueError(f"u_max must be finite and positive, got {u_max}")
    if not 0.0 < step <= u_max:
        raise ValueError(f"step must lie in (0, u_max], got {step}")
    _check_rows(u_max, step)
    sol = sigma_dde(delta, max(u_max, 2.0), richardson=True)
    us = np.arange(0.0, u_max + step / 2.0, step)
    us = us[us <= sol.u_max + 1e-12]
    vals = sol.value_cubic(us)
    rows = [[_fmt_key(u), fmt_table(v, digits)] for u, v in zip(us, vals)]
    return _render_rows(["u", "sigma"], rows, fmt)


def render_chi_grid(
    delta: float, t_max: float | None, h: float, step: float, fmt: str, digits: int
) -> str:
    _check_digits(digits)
    if 0.0 < step < math.inf and (t_max is None or math.isfinite(t_max)):
        # the span is at least t_max, or 4U >= 4 sqrt(e): refuse before the march
        _check_rows(4.0 * math.sqrt(math.e) if t_max is None else t_max, step)
    ext = extend_chi(delta, t_max=t_max, h=h)
    if not 0.0 < step <= ext.t_max:
        raise ValueError(f"step must lie in (0, t_max], got {step}")
    _check_rows(ext.t_max, step)
    ts = np.arange(0.0, ext.t_max - ext.h / 2.0, step)
    rows = [[_fmt_key(t), fmt_table(v, digits)] for t, v in zip(ts, ext.value(ts))]
    return _render_rows(["t", "chi"], rows, fmt)


def render_oracle_csv(
    k: int, delta: float, y: float, n_top: int, a_mult: float, u_step: float, fmt: str
) -> str:
    if not 0.0 < u_step < math.inf:
        raise ValueError(f"u_step must be finite and positive, got {u_step}")
    spec = oracle.construct_tracking_spec(k, delta, y, a_mult, n_top)
    u_top = a_mult * find_U(delta)
    _check_rows(u_top - 1.0, u_step)
    u_values = [float(u) for u in np.arange(1.0, u_top - 1e-12, u_step)] + [u_top]
    rows = oracle.spec_tracking_rows(spec, delta, u_values)
    header = ["x", "re_partial", "im_partial", "re_logmean", "im_logmean", "target", "deviation"]
    body = [
        [
            fmt_sig(r.x),
            fmt_sig(r.partial_sum.real),
            fmt_sig(r.partial_sum.imag),
            fmt_sig(r.log_mean.real),
            fmt_sig(r.log_mean.imag),
            fmt_sig(r.target),
            fmt_sig(r.deviation),
        ]
        for r in rows
    ]
    return _render_rows(header, body, fmt)


# --------------------------------------------------------------- handlers


def _emit(text: str, destination: str | None) -> None:
    if destination is None or destination == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(destination, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --output {destination}: {exc.strerror}") from None


def _cmd_dickman(args: argparse.Namespace) -> int:
    digits = _check_digits(args.digits)
    print(fmt_sig(dickman.rho(args.u), digits))
    return 0


def _cmd_udelta(args: argparse.Namespace) -> int:
    digits = _check_digits(args.digits)
    if args.delta is not None:
        print(fmt_sig(find_U(args.delta), digits))
    else:
        print(fmt_sig(delta_for_U(args.u), digits))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    """The grid, table and constants commands: one render_* call, then emit."""
    _emit(args.render(args), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verification.run_checks(args.suite, golden_dir=args.golden_dir)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'}  {r.name}: {r.detail}")
    failed = sum(1 for r in results if not r.ok)
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


# ------------------------------------------------------------------ parser


def _add_output_flags(sub: argparse.ArgumentParser, default_digits: int | None = 10) -> None:
    sub.add_argument("--format", choices=FORMATS, default="csv")
    sub.add_argument("--digits", type=int, default=default_digits)
    sub.add_argument("--output", default=None, help="file path, or - for standard output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extremal-means",
        description="Step-profile means, their first zeros, and the companion tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dickman", help="point value of the smooth-number density")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--digits", type=int, default=10)
    p.set_defaults(handler=_cmd_dickman)

    p = sub.add_parser("sigma", help="dump the marched mean on a grid")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--u-max", dest="u_max", type=float, default=3.0)
    p.add_argument("--step", type=float, default=0.01)
    _add_output_flags(p)
    p.set_defaults(
        handler=_cmd_render,
        render=lambda a: render_sigma_grid(a.delta, a.u_max, a.step, a.format, a.digits),
    )

    p = sub.add_parser("udelta", help="first zero from drift, or drift from first zero")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta", type=float, default=None)
    group.add_argument("--u", type=float, default=None)
    p.add_argument("--digits", type=int, default=10)
    p.set_defaults(handler=_cmd_udelta)

    p = sub.add_parser("table", help="the two summary tables")
    p.add_argument("--grid", choices=("u", "k"), required=True)
    p.add_argument("--kmax", type=int, default=17)
    _add_output_flags(p, default_digits=None)
    p.set_defaults(
        handler=_cmd_render, render=lambda a: render_table(a.grid, a.format, a.digits, a.kmax)
    )

    p = sub.add_parser("constants", help="named constants")
    p.add_argument(
        "--which", choices=("all", "c2", "c3", "c4", "sec4", "thm3"), default="all"
    )
    p.add_argument("--output", default=None)
    p.set_defaults(handler=_cmd_render, render=lambda a: render_constants(a.which))

    p = sub.add_parser("chi-extend", help="dump the mean-preserving profile extension")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--h", type=float, default=1e-4)
    p.add_argument("--step", type=float, default=0.01)
    _add_output_flags(p)
    p.set_defaults(
        handler=_cmd_render,
        render=lambda a: render_chi_grid(a.delta, a.t_max, a.h, a.step, a.format, a.digits),
    )

    p = sub.add_parser("oracle", help="sieve construction tracking report")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--y", type=float, default=float(oracle.DESK_Y))
    p.add_argument("--n", type=int, default=oracle.DESK_N)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--u-step", dest="u_step", type=float, default=0.05)
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(
        handler=_cmd_render,
        render=lambda a: render_oracle_csv(a.k, a.delta, a.y, a.n, a.a, a.u_step, a.format),
    )

    p = sub.add_parser("verify", help="run the self-check suite")
    p.add_argument("--suite", choices=("fast", "full"), default="fast")
    p.add_argument("--golden-dir", dest="golden_dir", default=None)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, RootNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
