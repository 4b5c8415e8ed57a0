"""Steadiness report: run one workload repeatedly and compare spreads to bounds.

Usage, from the repository root::

    python3 linkbench/steady.py --workload interactive --runs 10 [--trace 0]

Runs ``linkbench/run.py`` once per seed (1..runs, or ``--first-seed``
on), then prints for every metric its median, first and third
quartile (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and, for end-to-end metrics, the bound from
``BENCHMARK.json`` and whether the spread stays under a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: Dict[str, List[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        completed = subprocess.run(
            [
                sys.executable, "linkbench/run.py",
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        if completed.returncode != 0:
            print(f"seed {seed}: exit {completed.returncode}")
            continue
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(
            f"seed {seed}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}",
            flush=True,
        )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':34} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    steady = True
    for name, series in values.items():
        q1, q2, q3 = statistics.quantiles(series, n=4)
        middle = statistics.median(series)
        spread = (q3 - q1) / middle if middle else float("inf")
        line = f"{name:34} {middle:11.4f} {q1:11.4f} {q3:11.4f} {spread:7.3f}"
        if name in bounds:
            ok = spread < bounds[name] / 3 or name == "setup_s"
            steady &= ok
            line += f" {bounds[name]:6.2f} {'ok' if ok else 'NOISY'}"
        print(line)
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
