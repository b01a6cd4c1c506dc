"""Runs the benchmark over several seeds and reports each metric's median
and spread.

Run from the repository root:

    python3 perfbench/sweep.py [--seeds 10] [--trace 0|1]

Each run is ``run.py`` with the ``run_seconds`` of BENCHMARK.json, on every
workload and the seeds 0 to N-1. It echoes each run's summary line. The spread
is the distance between the first and third quartiles of the runs
(``statistics.quantiles(values, n=4)``) as a share of their median, shown
next to the metric's bound; the steadiness target is a third of the bound.
With ``--seeds 1`` it prints every metric with its unit for every workload,
and the error rate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in BENCH["end_to_end"]}
    for workload in (w["name"] for w in BENCH["workloads"]):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in range(args.seeds):
            began = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(BENCH["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False)
            wall = time.perf_counter() - began
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print("\n".join(lines[:-1]) + f" [{wall:.1f} s wall]", flush=True)
        for name, vals in values.items():
            s = spread(vals)
            bound = bounds.get(name)
            print(f"  {workload:16s} {name:36s} "
                  f"median {statistics.median(vals):.6g} {units[name]:6s}"
                  + (f" spread {s:.4f}" if s is not None else "")
                  + (f" bound {bound} ({'ok' if s is None or s <= bound / 3 else 'over bound/3'})"
                     if bound is not None else ""))
        print(f"  {workload:16s} error_rate {failed / attempted:.4f} ({failed}/{attempted})",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
