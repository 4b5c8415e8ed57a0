"""The linker's benchmark: one workload, one run, one JSON result line.

Usage, from the repository root::

    python3 linkbench/run.py --workload interactive --seed 1 --seconds 25 --trace 0

Builds (or reuses) the datasets, pipelines, artifacts and oracle
rankings for this version of ``src/`` (see ``build.py``), runs the
workload for about ``--seconds`` of measurement, checks every answer
against the oracle and prints, as the last line of standard output,
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1``
its per-layer metrics; a layer the workload does not pass through
reads 0.  Exit code 2: no program to measure; 3: the load generator
could not keep its schedule, so the run is not valid.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every server this run
    # started is stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "linkbench: no program at src/repro; run from the root of a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))

    import build
    import probes
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    build_dir = build.ensure_built(root)
    work = root / ".linkbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    counters = (
        probes.Counters(work / "counters.bin", create=True)
        if args.trace
        else None
    )
    try:
        run = workloads.Run(
            root=root,
            build=build_dir,
            seed=args.seed,
            seconds=args.seconds,
            work=work,
            counters=counters,
        )
        outcome = workloads.WORKLOADS[args.workload](run)
    except workloads.InvalidRun as error:
        print(f"linkbench: invalid run: {error}", file=sys.stderr)
        return 3
    finally:
        if counters is not None:
            counters.close()
        shutil.rmtree(work, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics: Dict[str, Dict[str, object]] = {}
    for entry in declared:
        name = entry["name"]
        if name in outcome.metrics:
            value, unit = outcome.metrics[name]
        elif args.trace:
            value, unit = 0.0, entry["unit"]  # layer not on this path
        else:
            raise KeyError(f"workload did not measure {name}")
        if unit != entry["unit"]:
            raise ValueError(f"{name}: unit {unit} != declared {entry['unit']}")
        metrics[name] = {"value": float(value), "unit": unit}
    unknown = set(outcome.metrics) - set(metrics)
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    print(
        json.dumps(
            {
                "correct": outcome.wrong == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
