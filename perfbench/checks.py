"""Output checks: stored references, seeded invariants and `ref_dev`.

Fixed operations must reproduce the reference output captured from the
package (perfbench/reference/<op id>.out) byte for byte.  Seeded
operations have no stored answer, so `check_seeded` recomputes an
invariant through the library inside a forked child:

* ``udelta``: the round trip find_U(delta_for_U(u)) returns u to 1e-9
  (and delta_for_U(find_U(delta)) returns delta), and stdout prints the
  library value;
* ``chi-extend``: samples stay in [-delta, 1] and the Volterra vanishing
  defect stays within 1e-6, the bound of ``verify``'s renewal-extension
  check;
* ``oracle``: a rebuild of ``build_f`` is identical, its tracking rows give
  the printed deviations, and the worst deviation is at most 0.15.

`reference_deviation` computes each workload's ``ref_dev`` from the fixed
outputs alone, so it does not depend on the seed.
"""

from __future__ import annotations

import csv
import difflib
import io
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# gates on ref_dev, per workload: the tolerances verify uses
REF_GATES = {"paper-tables": 1e-7, "renewal": 1e-6, "sieve-lab": 0.15}

ROUND_TRIP_TOL = 1e-9
VANISHING_TOL = 1e-6
TRACKING_TOL = 0.15


def reference_path(op, reference_dir: Path = REFERENCE_DIR) -> Path:
    return reference_dir / f"{op.id}.out"


def compare_reference(op, stdout: bytes, reference_dir: Path = REFERENCE_DIR) -> str | None:
    """None when stdout equals the stored reference, else a unified diff."""
    path = reference_path(op, reference_dir)
    if not path.is_file():
        return f"no reference output {path.name}"
    expected = path.read_bytes()
    if stdout == expected:
        return None
    diff = difflib.unified_diff(
        expected.decode("utf-8", "replace").splitlines(),
        stdout.decode("utf-8", "replace").splitlines(),
        "reference",
        "output",
        lineterm="",
        n=1,
    )
    return "\n".join(list(diff)[:40])


def _csv_rows(text: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text.decode("utf-8"))))


# ----------------------------------------------------------- seeded checks
#
# These run in a forked child (see runner.fork_call), so the library work
# they do never warms the benchmark process.


def _round_trip_u(op, stdout: bytes) -> str | None:
    from extremal_means import cli, extremal

    u = op.value("u")
    delta = extremal.delta_for_U(u)
    back = extremal.find_U(delta)
    problems = []
    if abs(back - u) > ROUND_TRIP_TOL:
        problems.append(f"find_U(delta_for_U({u})) = {back!r}, off by {abs(back - u):.2e}")
    if stdout != f"{cli.fmt_sig(delta)}\n".encode():
        problems.append(f"printed {stdout!r}, library gives {cli.fmt_sig(delta)}")
    return "; ".join(problems) or None


def _round_trip_delta(op, stdout: bytes) -> str | None:
    from extremal_means import cli, extremal

    delta = op.value("delta")
    u = extremal.find_U(delta)
    back = extremal.delta_for_U(u)
    problems = []
    if abs(back - delta) > ROUND_TRIP_TOL:
        problems.append(f"delta_for_U(find_U({delta})) = {back!r}, off by {abs(back - delta):.2e}")
    if stdout != f"{cli.fmt_sig(u)}\n".encode():
        problems.append(f"printed {stdout!r}, library gives {cli.fmt_sig(u)}")
    return "; ".join(problems) or None


def _extension(op, stdout: bytes) -> str | None:
    import numpy as np

    from extremal_means import chi_renewal

    delta = op.value("delta")
    ext = chi_renewal.extend_chi(delta)
    excess = float(np.max(np.maximum(ext.samples - 1.0, -delta - ext.samples)))
    defect = chi_renewal.verify_sigma_vanishes(ext, 3.0 * ext.U)
    printed = [float(r["chi"]) for r in _csv_rows(stdout)]
    problems = []
    if excess > 1e-12:
        problems.append(f"samples leave [-delta, 1] by {excess:.2e}")
    if not printed or min(printed) < -delta - 1e-9 or max(printed) > 1.0 + 1e-9:
        problems.append("printed profile leaves [-delta, 1]")
    if not defect <= VANISHING_TOL:
        problems.append(f"vanishing defect {defect:.2e} exceeds {VANISHING_TOL:.0e}")
    return "; ".join(problems) or None


def _oracle_rebuild(op, stdout: bytes) -> str | None:
    import numpy as np

    from extremal_means import cli, extremal, oracle

    k, n = int(op.value("k")), int(op.value("n"))
    delta, y = op.value("delta"), op.value("y")
    spec = oracle.construct_tracking_spec(k, delta, y, 1.0, n)
    f = oracle.build_f(spec, n)
    problems = []
    if not np.array_equal(f, oracle.build_f(spec, n)):
        problems.append("build_f differs on rebuild")
    u_top = extremal.find_U(delta)  # range multiplier 1, the CLI default
    u_values = [float(u) for u in np.arange(1.0, u_top - 1e-12, 0.05)] + [u_top]
    rows = oracle.tracking_rows(f, y, delta, u_values)
    printed = [r["deviation"] for r in _csv_rows(stdout)]
    if printed != [cli.fmt_sig(r.deviation) for r in rows]:
        problems.append("printed deviations differ from the rebuilt tracking rows")
    worst = max(r.deviation for r in rows)
    if not worst <= TRACKING_TOL:
        problems.append(f"worst tracking deviation {worst:.4f} exceeds {TRACKING_TOL}")
    return "; ".join(problems) or None


SEEDED_CHECKS = {
    "round-trip-u": _round_trip_u,
    "round-trip-delta": _round_trip_delta,
    "extension": _extension,
    "oracle-rebuild": _oracle_rebuild,
}


def check_seeded(op, stdout: bytes) -> str | None:
    return SEEDED_CHECKS[op.check](op, stdout)


# ------------------------------------------------------------------ ref_dev


def _paper_tables_dev(outputs: dict[str, bytes], root: Path) -> dict[str, float]:
    """Golden-table gates of verify: u-table delta/I and k-table
    delta/U/gamma_Sk against the CSVs, k-table I against the defining
    identity (the frozen means), never against the CSV I column."""
    data = root / "src" / "extremal_means" / "data"
    devs = {}
    golden_u = _csv_rows((data / "table_u.csv").read_bytes())
    have_u = _csv_rows(outputs["table-u"])
    dev = 0.0 if len(golden_u) == len(have_u) else math.inf
    for g, h in zip(golden_u, have_u):
        for col in ("u", "delta", "I"):
            dev = max(dev, abs(float(g[col]) - float(h[col])))
    devs["table-u"] = dev

    golden_k = _csv_rows((data / "table_k.csv").read_bytes())
    have_k = _csv_rows(outputs["table-k"])
    means = json.loads((REFERENCE_DIR / "k_mean_identity.json").read_text())["I"]
    dev = 0.0 if len(golden_k) == len(have_k) else math.inf
    for g, h in zip(golden_k, have_k):
        cols = ["k", "delta", "U"] + (["gamma_Sk"] if g["gamma_Sk"] else [])
        for col in cols:
            dev = max(dev, abs(float(g[col]) - float(h[col])))
        dev = max(dev, abs(means[g["k"]] - float(h["I"])))
    devs["table-k"] = dev
    return devs


def _renewal_dev(outputs: dict[str, bytes], root: Path) -> dict[str, float]:
    text = outputs["vanishing-0.2"].decode("utf-8")
    line = next(ln for ln in text.splitlines() if ln.startswith("max |mean| past U"))
    return {"vanishing-0.2": float(line.split("=")[1])}


def _sieve_lab_dev(outputs: dict[str, bytes], root: Path) -> dict[str, float]:
    return {
        op_id: max(float(r["deviation"]) for r in _csv_rows(outputs[op_id]))
        for op_id in ("oracle-default", "oracle-k3")
    }


_REF_DEV = {"paper-tables": _paper_tables_dev, "renewal": _renewal_dev, "sieve-lab": _sieve_lab_dev}


def reference_deviation(workload: str, outputs: dict[str, bytes], root: Path) -> dict[str, float]:
    """Worst deviation from an independent reference, per fixed operation."""
    return _REF_DEV[workload](outputs, root)


def consistency_problems(workload: str, outputs: dict[str, bytes]) -> dict[str, str]:
    """Cross-operation agreement: the k table to 40 must open with the k table."""
    if workload != "paper-tables":
        return {}
    short = outputs["table-k"].splitlines()
    long = outputs["table-k40"].splitlines()
    if long[: len(short)] != short:
        return {"table-k40": "first rows differ from table --grid k"}
    return {}
