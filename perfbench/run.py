"""spectree benchmark: one workload, one run.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It writes the workload's inputs from the seed, runs the workload's CLI
operations in one fresh child interpreter (``child.py``), checks the reports,
and prints a summary. The last line of stdout is the JSON result. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of an outside-in traced run (see ``spans.py``).

Inputs and reports live under ``perfbench/out/work`` during the run and are
deleted after it; a record of each run (samples, report digests, environment)
stays in ``perfbench/out/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

SETUP_REPEATS = 7
RUN_BUDGET_S = 170.0  # the whole run, child included, ends within this
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None  # an exported checkout; do not report an enclosing repository's commit
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(root: Path) -> dict:
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
    }


def setup_seconds(root: Path, env: dict) -> list[float]:
    """Wall seconds from starting a fresh interpreter until it has imported
    spectree.cli and is ready to parse a command."""
    times = []
    code = "import spectree.cli; print('ready', flush=True)"
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=root, env=env,
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"importing spectree.cli failed (exit {proc.returncode})")
    return times


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it, as
    (percentile, value), or None when there are too few samples."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(samples)[k - 1]


def check_reports(workload: str, plan: workloads.Plan, first: Path) -> list[str]:
    try:
        reports = [json.loads((first / name).read_text(encoding="utf-8"))
                   for name in plan.outputs]
        return workloads.check(workload, reports, plan.expect)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"{workload}: report unreadable or malformed: {exc!r}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    began = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "spectree" / "cli.py").is_file():
        print(f"error: no spectree source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    out = root / "perfbench" / "out"
    work = out / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (out / "results").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(root)}
    try:
        plan = workloads.prepare(args.workload, args.seed, work)
        setup = [] if args.trace else setup_seconds(root, env)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps({
            "ops": plan.ops, "outputs": plan.outputs, "workdir": str(work),
            "seconds": args.seconds, "trace": bool(args.trace),
            "spans_path": str(out / "results" / f"{tag}.spans.jsonl.gz")}), encoding="utf-8")
        child_result = work / "child.json"
        subprocess.run([sys.executable, str(Path(__file__).with_name("child.py")),
                        str(plan_path), str(child_result)], cwd=root, env=env, check=True,
                       stdout=subprocess.DEVNULL,
                       timeout=RUN_BUDGET_S - (time.perf_counter() - began))
        child = json.loads(child_result.read_text(encoding="utf-8"))
        check_errors = check_reports(args.workload, plan, work / "first")
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {args.workload} did not run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = child["attempted"], child["failed"]
    if check_errors:
        failed = attempted  # every operation wrote the same wrong reports
    if args.trace:
        layers = child["layers"]
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in spans.PER_LAYER.items()}
        busiest = sorted((layers[f"{k}.self_s"], k) for k in spans.LAYERS)[::-1][:5]
        print(f"{args.workload} seed {args.seed} traced: "
              f"{statistics.median(child['traced_s']):.4f} s per operation = "
              + " + ".join(f"{k} {v:.4f}" for v, k in busiest)
              + f" + ...; overhead {layers['trace.overhead_s']:.4f} s, "
              f"calibration {1e3 * statistics.median(child['calibration_s']):.2f} ms")
    else:
        run_s = child["run_s"]
        metrics = {
            "run_s": {"value": statistics.median(run_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        }
        tail = tail_percentile(run_s)
        tail_text = f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else "no tail percentile"
        print(f"{args.workload} seed {args.seed}: run_s {metrics['run_s']['value']:.4f} s "
              f"(median of {len(run_s)}, {tail_text}), "
              f"setup_s {metrics['setup_s']['value']:.4f} s (median of {len(setup)}), "
              f"peak_rss_mb {child['peak_rss_mb']:.1f} MB, "
              f"error_rate {failed / attempted:.4f} ({failed}/{attempted}); "
              f"jacobi {statistics.median(child['jacobi_s']):.4f} s, "
              f"calibration {1e3 * statistics.median(child['calibration_s']):.2f} ms")
        record.update(setup_s=setup, tail_percentile=tail)
    for error in child["errors"] + check_errors:
        print(f"check failed: {error.strip()}")
    record.update(child=child, check_errors=check_errors, metrics=metrics,
                  error_rate=failed / attempted)
    (out / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
