"""Outside-in tracing of spectree: spans around every public function.

``instrumented`` replaces each public module-level function of every
``spectree`` module with a wrapper that records a span (name, start, end,
parent). It patches every place a function is reachable by name: its own
module, every module that re-imports it, and registry dicts such as
``verify.SUITES`` that hold direct references. The program's source is not
touched, and leaving the context restores the originals.

Spans stay in memory until the caller writes them out. ``layer_metrics``
turns them into the benchmark's per-layer figures.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gzip
import importlib
import inspect
import json
import pkgutil
from time import perf_counter

import numpy as np

PACKAGE = "spectree"

LAYERS = ("tree", "weight", "selfmap", "lpspace", "compop", "schatten", "oracle",
          "instances", "analysis", "verify", "cli")

# sub-layer figures: metric prefix -> span names it sums
SUBLAYERS = {
    "selfmap.analyze": ("selfmap.analyze",),
    "selfmap.adversary": ("selfmap.adversary_unbounded", "selfmap.adversary_vanishing"),
    "oracle.jacobi": ("oracle.jacobi_eigenvalues",),
    "analysis.report_json": ("analysis.report_json",),
}

PER_LAYER = {  # name -> unit; every traced run reports all of them
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{sub}.self_s": "s" for sub in SUBLAYERS},
    "tree.calls": "count",
    "tree.vertices": "count",
    "lpspace.calls": "count",
    "oracle.jacobi.calls": "count",
    "oracle.jacobi.cells": "count",
    "oracle.jacobi.diagonal_input_ratio": "ratio",
    "analysis.report_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "size")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.size = None  # the probe's count for this call, if any


def _probe(name: str, args: tuple, result):
    """Work counted at the boundary: vertices of a returned tree, bytes of a
    serialized report, and (n, whether the input is already diagonal) for
    each Jacobi solve."""
    if name.startswith("tree.") and type(result).__name__ == "Tree":
        return len(result)
    if name == "analysis.report_json":
        return len(result)
    if name == "oracle.jacobi_eigenvalues":
        a = np.asarray(args[0])
        return [int(a.shape[0]), bool(np.count_nonzero(a - np.diag(np.diag(a))) == 0)]
    return None


class Tracer:
    """Records one span per call of a wrapped function, in call order."""

    def __init__(self, probe: bool = True):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.probe = probe  # False: record times only, leave the probes' work out

    def wrap(self, fn, name: str):
        spans, stack, probe = self.spans, self._stack, self.probe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if probe:
                span.size = _probe(name, args, result)
            return result

        return traced

    def write(self, path) -> None:
        """One JSON array [name, start, end, parent, probe] per line, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.size]) + "\n")


def _modules():
    pkg = importlib.import_module(PACKAGE)
    names = [m.name for m in pkgutil.iter_modules(pkg.__path__) if m.name != "__main__"]
    return [pkg] + [importlib.import_module(f"{PACKAGE}.{n}") for n in names]


@contextlib.contextmanager
def instrumented(tracer: Tracer, only: set[str] | None = None):
    """Wrap every public spectree function for the duration of the block,
    or only those whose span names are in ``only``."""
    wrappers: dict = {}  # original -> wrapper
    undo: list = []

    def patch(table: dict, key) -> None:
        fn = table[key]
        if (not inspect.isfunction(fn) or fn.__name__.startswith("_")
                or not fn.__module__.startswith(PACKAGE + ".")
                or fn in wrappers.values()):
            return
        name = f"{fn.__module__[len(PACKAGE) + 1:]}.{fn.__name__}"
        if only is not None and name not in only:
            return
        if fn not in wrappers:
            wrappers[fn] = tracer.wrap(fn, name)
        undo.append((table, key, fn))
        table[key] = wrappers[fn]

    try:
        for module in _modules():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, dict):
                    for key in list(value):
                        patch(value, key)
                else:
                    patch(namespace, attr)
        yield tracer
    finally:
        for table, key, original in reversed(undo):
            table[key] = original


def layer_metrics(spans: list[Span], op_walls: list[float], untraced_walls: list[float]) -> dict:
    """Per-layer figures per operation, averaged over the traced operations.

    A span's self time is its duration minus its children's durations, so
    the layer self times plus ``trace.unattributed_s`` (operation wall time
    covered by no span) add up to the traced wall time.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    totals = collections.defaultdict(float, dict.fromkeys(PER_LAYER, 0.0))
    sub_of = {name: sub for sub, names in SUBLAYERS.items() for name in names}
    top_level = 0.0
    diagonal = 0
    for s, below in zip(spans, child_time):
        duration = s.end - s.start
        own = duration - below
        layer = s.name.split(".", 1)[0]
        totals[f"{layer}.self_s"] += own
        if s.name in sub_of:
            totals[f"{sub_of[s.name]}.self_s"] += own
        if s.parent < 0:
            top_level += duration
        if layer in ("tree", "lpspace"):
            totals[f"{layer}.calls"] += 1
        if s.size is None:  # no probe, or the call raised
            continue
        if layer == "tree":
            totals["tree.vertices"] += s.size
        elif s.name == "analysis.report_json":
            totals["analysis.report_bytes"] += s.size
        elif s.name == "oracle.jacobi_eigenvalues":
            totals["oracle.jacobi.calls"] += 1
            totals["oracle.jacobi.cells"] += s.size[0] ** 2
            diagonal += s.size[1]
    calls = totals["oracle.jacobi.calls"]
    totals["oracle.jacobi.diagonal_input_ratio"] = diagonal / calls if calls else 0.0
    ops = len(op_walls)
    metrics = {k: (v if k.endswith("_ratio") else v / ops) for k, v in totals.items()}
    metrics["trace.unattributed_s"] = (sum(op_walls) - top_level) / ops
    # the operations alternate, so pair each traced one with the untraced one before it
    metrics["trace.overhead_s"] = float(np.median(np.subtract(op_walls, untraced_walls)))
    return metrics
