"""Runs one workload's operations in a fresh interpreter and times them.

``run.py`` starts this with the program's source on PYTHONPATH:

    python3 perfbench/child.py PLAN.json RESULT.json

It runs one untimed warm-up operation and keeps its reports for run.py
to check, then times operations until the plan's budget is spent. Every
later operation must exit 0 and write byte-identical reports.

Before each timed operation and after the last it times a fixed
pure-Python loop three times, a gauge of host speed, so that a slow run can
be put down to the host or to the program. In an untraced run only
``oracle.jacobi_eigenvalues`` is wrapped, without probes, to record each
operation's Jacobi seconds; the solver either converges at once or runs all
its sweeps, and this shows which. With tracing on, operations alternate
between untraced and under ``spans.instrumented``, so both kinds sample the
same stretch of host time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import spans

MIN_OPS = 2  # calls of the phase's step, at least
HARD_STOP_S = 110.0  # start no operation after this, whatever MIN_OPS says
CALIBRATION_ITERATIONS = 100_000  # about 10 ms on an idle 2.1 GHz host
CALIBRATION_SAMPLES = 3
JACOBI = "oracle.jacobi_eigenvalues"


def calibration_s() -> float:
    """Wall seconds of a fixed pure-Python loop that does not touch spectree."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def digests(workdir: Path, outputs: list[str]) -> list[str | None]:
    found = []
    for name in outputs:
        path = workdir / name
        found.append(hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None)
    return found


class Runner:
    def __init__(self, plan: dict):
        from spectree import cli

        self.cli = cli
        self.ops = plan["ops"]
        self.workdir = Path(plan["workdir"])
        self.outputs = plan["outputs"]
        self.reference: list[str | None] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.calibration: list[float] = []
        self.started = time.perf_counter()

    def op(self) -> float:
        """Run one operation; return its wall seconds. The CLI's summary
        lines go to a buffer that is dropped."""
        self.attempted += 1
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [self.cli.main(argv) for argv in self.ops]
        except Exception:
            codes, error = [], traceback.format_exc()
        wall = time.perf_counter() - start
        if error is None and any(codes):
            error = f"exit codes {codes}"
        if error is None and self.reference:
            if digests(self.workdir, self.outputs) != self.reference:
                error = "reports differ from the warm-up operation's"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 3:
                self.errors.append(error)
        return wall

    def warm_up(self) -> float:
        wall = self.op()
        self.reference = digests(self.workdir, self.outputs)
        first = self.workdir / "first"
        first.mkdir()
        for name in self.outputs:
            if (self.workdir / name).is_file():
                shutil.copyfile(self.workdir / name, first / name)
        return wall

    def calibrate(self) -> None:
        self.calibration.extend(calibration_s() for _ in range(CALIBRATION_SAMPLES))

    def phase(self, seconds: float, step) -> int:
        """Call ``step`` (which runs operations and returns their wall seconds)
        for about ``seconds``: the last call starts only if at least half of
        it fits before the deadline. Calibrates before each call and after
        the last. Returns the number of calls."""
        calls, last = 0, 0.0
        deadline = time.perf_counter() + seconds
        while not calls or (
                time.perf_counter() - self.started < HARD_STOP_S
                and (calls < MIN_OPS or time.perf_counter() + last / 2 < deadline)):
            self.calibrate()
            last = step()
            calls += 1
        self.calibrate()
        return calls


def span_seconds(tracer: spans.Tracer, first: int, name: str) -> float:
    return sum(s.end - s.start for s in tracer.spans[first:] if s.name == name)


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    runner = Runner(plan)
    result = {"warmup_s": runner.warm_up()}
    seconds = plan["seconds"]
    if plan["trace"]:
        tracer = spans.Tracer()
        untraced, traced, jacobi = [], [], []

        def step() -> float:
            untraced.append(runner.op())
            first = len(tracer.spans)
            with spans.instrumented(tracer):
                traced.append(runner.op())
            jacobi.append(span_seconds(tracer, first, JACOBI))
            return untraced[-1] + traced[-1]

        runner.phase(seconds, step)
        tracer.write(plan["spans_path"])
        result.update(untraced_s=untraced, traced_s=traced, traced_jacobi_s=jacobi,
                      layers=spans.layer_metrics(tracer.spans, traced, untraced))
    else:
        tracer = spans.Tracer(probe=False)
        walls, jacobi = [], []

        def step() -> float:
            first = len(tracer.spans)
            walls.append(runner.op())
            jacobi.append(span_seconds(tracer, first, JACOBI))
            return walls[-1]

        with spans.instrumented(tracer, only={JACOBI}):
            runner.phase(seconds, step)
        result.update(run_s=walls, jacobi_s=jacobi)
    result["calibration_s"] = runner.calibration
    result.update(
        attempted=runner.attempted, failed=runner.failed, errors=runner.errors,
        digests=dict(zip(runner.outputs, runner.reference)),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
