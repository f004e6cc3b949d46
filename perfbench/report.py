"""Print every benchmark metric for every workload, by name and with units.

    python3 perfbench/report.py [--json FILE]

Run from the root of a source checkout.  For each workload this runs
perfbench/run.py twice on the default seed, for the `run_seconds` of
BENCHMARK.json, untraced (end-to-end metrics) and traced (per-layer
metrics and tracing overhead), and prints one table of each.
`error_rate` is failed over attempted operations across both runs.  With
--json the numbers are also written to FILE (a perf-trajectory point).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(DEFAULT_SEED),
        "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", default=None, help="also write the numbers to this file")
    args = parser.parse_args(argv)

    names = sorted(WORKLOADS)
    results = {}
    for name in names:
        untraced = run_once(name, 0)
        traced = run_once(name, 1)
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
        end_to_end = dict(untraced["metrics"])
        end_to_end["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
        results[name] = {
            "correct": untraced["correct"] and traced["correct"],
            "attempted": attempted,
            "failed": failed,
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }

    for section in ("end_to_end", "per_layer"):
        metrics = list(results[names[0]][section])
        print(f"\n{section.replace('_', '-')} metrics (seed {DEFAULT_SEED}, {SECONDS:g} s per run)")
        print(f"{'metric':44s} {'unit':6s} " + " ".join(f"{n:>14s}" for n in names))
        for metric in metrics:
            unit = results[names[0]][section][metric]["unit"]
            cells = " ".join(f"{results[n][section][metric]['value']:14.6g}" for n in names)
            print(f"{metric:44s} {unit:6s} {cells}")
    print("\ncorrect: " + ", ".join(f"{n} {results[n]['correct']}" for n in names))

    if args.json:
        Path(args.json).write_text(
            json.dumps({"seed": DEFAULT_SEED, "seconds": SECONDS, "workloads": results}, indent=1) + "\n"
        )
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
