"""Steadiness report: repeat workloads and show each metric's spread.

Usage::

    python3 perfbench/steady.py --runs 10 [--workloads paper_cli ...]
        [--first-seed 1]

Runs ``run.py --trace 0`` for BENCHMARK.json's ``run_seconds`` once per
seed (``first-seed`` onwards) on each workload and prints, per metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and IQR/median next to the
metric's bound from BENCHMARK.json.  ``steady`` marks a spread below a
third of the bound; setup_s is exempt from the spread rule.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(last)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"\n{workload}: {args.runs} runs")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'bound':>6s}")
        for name, series in values.items():
            q1, q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            bound = bounds[name]
            verdict = ""
            if name != "setup_s":
                verdict = "steady" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO WIDE")
            print(f"  {name:28s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{bound:>6} {units[name]} {verdict}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
