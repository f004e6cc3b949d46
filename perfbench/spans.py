"""Span recorder for the traced run, wrapped around the package from outside.

`install` replaces each listed public function of the layer modules with a
wrapper that records one span per call (name, start, end, parent span) and
rebinds the wrapper under every name that any ``extremal_means`` module
holds for the original, so nested calls such as ``find_U`` inside
``delta_for_U`` form a tree.  It is called inside a forked child after the
fork, never in the parent, so untraced operations run the unwrapped code.

Spans stay in memory (`Recorder.spans`) and are handed back to the parent
once per operation.  `pass_metrics` turns the spans of one pass into the
per-layer metrics named in perfbench/README.md.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "extremal_means"


def _find_u_branch(args, result, error):
    from extremal_means.extremal import CLOSED_FORM_DELTA

    if isinstance(error, ValueError):
        return {}
    delta = args["delta"]
    if args["use_closed_form"] and delta >= CLOSED_FORM_DELTA:
        branch = "closed"
    elif error is None and result <= 3.0:
        branch = "bisect"
    else:
        branch = "march"  # marched to U_CAP, found a zero past 3 or raised
    return {f"branch_{branch}": 1}


def _solve_nodes(args, result, error):
    """Nodes marched by one solve: the grid, plus the half-step grid."""
    n = round(args["u_max"] / args["h"])
    return {"nodes": (n + 1) + ((2 * n + 1) if args["richardson"] else 0)}


def _delay_nodes(args, result, error):
    return {"nodes": len(args["values"]) - args["start"]}


def _quadrature_evals(args, result, error):
    return {"evals": result.evaluations} if error is None else {}


def _extension_nodes(args, result, error):
    return {"nodes": len(result.samples)} if error is None else {}


def _assigned_primes(args, result, error):
    return {"primes": len(result.assignment)} if error is None else {}


def _sieve_length(args, result, error):
    return {"n": int(args["N"])}


# (module, function, counter) for every wrapped function; a counter maps
# the bound arguments, the return value and the exception (or None) to
# work counts.  constants and cli render functions are added in bulk.
LAYER_FUNCTIONS = (
    ("piecewise", "integrate_callable", _quadrature_evals),
    ("grid", "integrate_delay_equation", _delay_nodes),
    ("dickman", "default_table", None),
    ("sigma", "sigma_closed", None),
    ("sigma", "sigma_dde", _solve_nodes),
    ("sigma", "solve_volterra", _solve_nodes),
    ("extremal", "find_U", _find_u_branch),
    ("extremal", "delta_for_U", None),
    ("extremal", "compute_I", None),
    ("extremal", "locate_first_zero", None),
    ("chi_renewal", "extend_chi", _extension_nodes),
    ("chi_renewal", "verify_sigma_vanishes", None),
    ("oracle", "sieve_primes", _sieve_length),
    ("oracle", "smallest_prime_factors", _sieve_length),
    ("oracle", "random_spec", None),
    ("oracle", "build_f", _sieve_length),
    ("oracle", "build_g", None),
    ("oracle", "transforms", None),
    ("oracle", "construct_tracking_spec", _assigned_primes),
    ("oracle", "tracking_rows", None),
)


def _bulk_functions(module_name: str, prefix: str = ""):
    """Public functions defined in a module (constants, cli render_*)."""
    mod = importlib.import_module(f"{PACKAGE}.{module_name}")
    for name, obj in vars(mod).items():
        if (
            inspect.isfunction(obj)
            and obj.__module__ == mod.__name__
            and not name.startswith("_")
            and name.startswith(prefix)
        ):
            yield module_name, name, None


class Recorder:
    """In-memory spans of one operation: (id, parent, name, start, end, counts)."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, dict | None]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        if counter is not None:
            params = inspect.signature(fn).parameters
            names = tuple(params)
            defaults = {
                k: p.default for k, p in params.items() if p.default is not inspect.Parameter.empty
            }

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                counts = None
                if counter is not None:
                    bound = dict(defaults)
                    bound.update(zip(names, args))
                    bound.update(kwargs)
                    counts = counter(bound, result, error)
                spans.append((sid, parent, name, start, end, counts))

        return traced


def install(recorder: Recorder) -> None:
    """Wrap every layer function and rebind it across the package.

    Span ids are unique within one operation because a span takes its id
    when it opens, from the count of closed plus open spans.
    """
    targets = list(LAYER_FUNCTIONS)
    targets += list(_bulk_functions("constants"))
    targets += list(_bulk_functions("cli", prefix="render_"))
    wrappers = {}
    for module_name, fname, counter in targets:
        original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), fname)
        wrappers[id(original)] = recorder.wrap(f"{module_name}.{fname}", original, counter)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)


# ------------------------------------------------------------ aggregation

PER_LAYER_COUNTS = {
    "extremal.delta_for_U": ("calls", "self_s"),
    "extremal.find_U": ("calls", "self_s", "branch_closed", "branch_bisect", "branch_march"),
    "extremal.compute_I": ("calls", "self_s"),
    "extremal.locate_first_zero": ("calls", "self_s"),
    "sigma.sigma_dde": ("calls", "self_s", "nodes"),
    "grid.integrate_delay_equation": ("calls", "self_s", "nodes"),
    "sigma.sigma_closed": ("calls", "self_s"),
    "piecewise.integrate_callable": ("calls", "self_s", "evals"),
    "chi_renewal.extend_chi": ("calls", "self_s", "nodes"),
    "sigma.solve_volterra": ("calls", "self_s", "nodes"),
    "chi_renewal.verify_sigma_vanishes": ("calls", "self_s"),
    "dickman.default_table": ("calls", "self_s"),
    "oracle.construct_tracking_spec": ("calls", "self_s", "primes"),
    "oracle.sieve_primes": ("calls", "self_s", "n"),
    "oracle.smallest_prime_factors": ("calls", "self_s", "n"),
    "oracle.build_f": ("calls", "self_s", "n"),
    "oracle.build_g": ("calls", "self_s"),
    "oracle.transforms": ("calls", "self_s"),
    "oracle.tracking_rows": ("calls", "self_s"),
    "oracle.random_spec": ("calls", "self_s"),
}

# metrics derived across spans rather than read off one function
DERIVED = (
    "extremal.delta_for_U.find_U_per_solve",
    "oracle.sieve_repeats",
    "constants.all.self_s",
    "cli.render.self_s",
)


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its last name component."""
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat in ("find_U_per_solve", "sieve_repeats"):
        return "ratio"
    return "count"


def per_layer_names() -> list[str]:
    names = [f"{fn}.{stat}" for fn, stats in PER_LAYER_COUNTS.items() for stat in stats]
    return names + list(DERIVED)


def pass_metrics(ops_spans: list[list[tuple]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; `ops_spans` holds one span list per operation."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    find_u_in_solve = 0
    sieve_calls = 0
    distinct_sieve_n = 0
    for op_spans in ops_spans:
        by_id = {s[0]: s for s in op_spans}
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, name, start, end, _ in op_spans:
            if parent >= 0:
                child_time[parent] += end - start
        sieve_ns = set()
        for sid, parent, name, start, end, extra in op_spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[sid]
            for key, val in (extra or {}).items():
                counts[f"{name}.{key}"] += val
            if name == "extremal.find_U":
                p = parent
                while p >= 0:
                    if by_id[p][2] == "extremal.delta_for_U":
                        find_u_in_solve += 1
                        break
                    p = by_id[p][1]
            if name in ("oracle.sieve_primes", "oracle.smallest_prime_factors"):
                sieve_calls += 1
                sieve_ns.add(extra["n"])
        distinct_sieve_n += len(sieve_ns)

    out: dict[str, float] = {}
    for fn, stats in PER_LAYER_COUNTS.items():
        for stat in stats:
            if stat == "calls":
                out[f"{fn}.calls"] = calls[fn]
            elif stat == "self_s":
                out[f"{fn}.self_s"] = self_s[fn]
            else:
                out[f"{fn}.{stat}"] = counts[f"{fn}.{stat}"]
    solves = calls["extremal.delta_for_U"]
    out["extremal.delta_for_U.find_U_per_solve"] = find_u_in_solve / solves if solves else 0.0
    out["oracle.sieve_repeats"] = sieve_calls / distinct_sieve_n if distinct_sieve_n else 0.0
    out["constants.all.self_s"] = sum(v for k, v in self_s.items() if k.startswith("constants."))
    out["cli.render.self_s"] = sum(v for k, v in self_s.items() if k.startswith("cli.render_"))
    return out
