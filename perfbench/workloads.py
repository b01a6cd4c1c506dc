"""Workload inputs, operations and output checks of the spectree benchmark.

Nothing here imports spectree. Inputs are documents the CLI reads, and every
check recomputes its expectation from the workload's own data (closed forms
or the generated tables), so a defect in the program cannot hide in its
check as well.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DOCS = Path(__file__).resolve().parent / "docs"

WORKLOADS = ("analyze_ladder", "spectrum_ladder", "adversary_docs", "verify_suites")

# The adversary tree: level k holds 2**k vertices, 131,071 in all.
ADVERSARY_LEVELS = 16
ADVERSARY_LADDER = (10, 13, 16)

# Per-seed verify cost is heavy-tailed (the Jacobi oracle either converges at
# once or runs all its sweeps), so a batch that changed with the workload
# seed would move run_s by tens of percent between seeds. The batch is fixed.
VERIFY_SEEDS = tuple(range(10))

REL_TOL = 1e-12
ORACLE_TOL = 1e-8
DEFAULT_ORACLE_CAP = 600  # the CLI's default when the spec sets none


@dataclass
class Plan:
    """What one operation runs and how its reports are checked."""

    ops: list[list[str]]  # CLI argument lists; one operation runs them all
    outputs: list[str]  # report files the operation writes
    expect: dict


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def level_tree(rng: np.random.Generator, levels: int) -> np.ndarray:
    """Parent index of each vertex of a random tree whose level k holds 2**k
    vertices. Vertices are numbered level by level, so the vertices of depth
    at most d are exactly the first 2**(d+1) - 1. Every vertex above the
    frontier gets at least one child."""
    parts = [np.array([-1], dtype=np.int64)]
    for k in range(1, levels + 1):
        above = 2 ** (k - 1)
        first_above = above - 1
        par = np.concatenate([np.arange(above), rng.integers(0, above, above)])
        parts.append(first_above + rng.permutation(par))
    return np.concatenate(parts)


def adversary_inputs(seed: int, workdir: Path, levels: int = ADVERSARY_LEVELS,
                     ladder: tuple[int, ...] = ADVERSARY_LADDER) -> tuple[Path, dict]:
    """Tree, weight and spec documents for ``adversary_docs``.

    Ids are shuffled tokens and the document order is shuffled, so loading
    does real work. Weights are log-uniform in [1e-3, 1e3].
    """
    rng = np.random.default_rng([seed, 7])
    parent = level_tree(rng, levels)
    n = parent.size
    names = [f"n{t}" for t in rng.permutation(n)]
    weights = 10.0 ** rng.uniform(-3.0, 3.0, n)
    order = rng.permutation(n)
    _write_json(workdir / "tree.json", {"vertices": [
        {"id": names[v], "parent": names[parent[v]] if v else None} for v in order]})
    _write_json(workdir / "weight.json",
                {"weights": {names[v]: float(weights[v]) for v in order}})
    spec = workdir / "adversary_spec.json"
    _write_json(spec, {
        "schema_version": 1,
        "tree": {"file": "tree.json"},
        "weight": {"file": "weight.json"},
        "map": {"builtin": "identity"},
        "p": 2,
        "depth_ladder": list(ladder),
        "seed": seed,
    })
    return spec, {"ladder": list(ladder), "names": names, "weights": weights.tolist()}


def prepare(workload: str, seed: int, workdir: Path) -> Plan:
    """Write the workload's inputs into ``workdir`` and return its plan."""
    workdir = Path(workdir)
    if workload in ("analyze_ladder", "spectrum_ladder"):
        command = workload.split("_")[0]
        spec = DOCS / f"{workload}.json"
        out = workdir / f"{command}.json"
        doc = json.loads(spec.read_text(encoding="utf-8"))
        return Plan(ops=[[command, str(spec), "--out", str(out)]], outputs=[out.name],
                    expect={"ladder": doc["depth_ladder"]})
    if workload == "adversary_docs":
        spec, expect = adversary_inputs(seed, workdir)
        out = workdir / "adversary.json"
        return Plan(ops=[["adversary", str(spec), "--out", str(out)]], outputs=[out.name],
                    expect=expect)
    if workload == "verify_suites":
        outs = [workdir / f"verify-{s}.json" for s in VERIFY_SEEDS]
        return Plan(ops=[["verify", "--seed", str(s), "--out", str(o)]
                         for s, o in zip(VERIFY_SEEDS, outs)],
                    outputs=[o.name for o in outs], expect={"seeds": list(VERIFY_SEEDS)})
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _close(got: str, want: float, rel: float = REL_TOL) -> bool:
    return abs(float(got) - want) <= rel * abs(want)


def check_analyze(report: dict, expect: dict) -> list[str]:
    """ratio_sup is (1+N^2)/(1+N) with N = isqrt(D) at every ladder depth D,
    and the ladder reads as an unbounded trend."""
    errors = []
    depths = [e["depth"] for e in report["entries"]]
    if depths != expect["ladder"]:
        errors.append(f"analyze: depths {depths} != ladder {expect['ladder']}")
    for entry in report["entries"]:
        n = math.isqrt(entry["depth"])
        want = (1 + n * n) / (1 + n)
        got = entry["boundedness"]["ratio_sup"]
        if not _close(got, want):
            errors.append(f"analyze depth {entry['depth']}: ratio_sup {got} != {want!r}")
    if report["trend"]["verdict"] != "unbounded trend":
        errors.append(f"analyze: trend verdict {report['trend']['verdict']!r}")
    return errors


def check_spectrum(report: dict, expect: dict) -> list[str]:
    """Binary tree, geometric(1/2) weight, parent map: hs_norm = 2^(D/2) and
    one fixed point (the root). Entries within the oracle cap agree with the
    oracle to 1e-8; larger ones report the cap skip."""
    errors = []
    depths = [e["depth"] for e in report["entries"]]
    if depths != expect["ladder"]:
        errors.append(f"spectrum: depths {depths} != ladder {expect['ladder']}")
    for entry in report["entries"]:
        depth = entry["depth"]
        where = f"spectrum depth {depth}"
        if not _close(entry["hs_norm"], 2.0 ** (depth / 2)):
            errors.append(f"{where}: hs_norm {entry['hs_norm']} != 2^({depth}/2)")
        if entry["fixed_point_count"] != 1:
            errors.append(f"{where}: fixed_point_count {entry['fixed_point_count']} != 1")
        oracle = entry["oracle"]
        if 2 ** (depth + 1) - 1 <= DEFAULT_ORACLE_CAP:
            if not oracle["checked"]:
                errors.append(f"{where}: oracle not checked within the cap")
            elif not float(oracle["max_abs_difference"]) <= ORACLE_TOL:
                errors.append(f"{where}: oracle max_abs_difference "
                              f"{oracle['max_abs_difference']} > {ORACLE_TOL}")
        elif oracle["checked"] or "skipped" not in (oracle["notice"] or ""):
            errors.append(f"{where}: oracle cap skip not reported")
    return errors


def check_adversary(report: dict, expect: dict) -> list[str]:
    """Both sections find an adversary at every depth; each map is an
    involutive permutation of the truncation's ids, and its ratio supremum,
    recomputed from the generated weight table, matches the report."""
    errors = []
    names, weights = expect["names"], expect["weights"]
    for key in ("unbounded_weight", "vanishing_weight"):
        section = report[key]
        if section["verdict"] != "adversary found":
            errors.append(f"adversary {key}: verdict {section['verdict']!r}")
        depths = [e["depth"] for e in section["entries"]]
        if depths != expect["ladder"]:
            errors.append(f"adversary {key}: depths {depths} != ladder {expect['ladder']}")
        for entry in section["entries"]:
            where = f"adversary {key} depth {entry['depth']}"
            if not entry["found"]:
                errors.append(f"{where}: no adversary")
                continue
            index = {names[v]: v for v in range(2 ** (entry["depth"] + 1) - 1)}
            table = entry["map"]["map"]
            if table.keys() != index.keys():
                errors.append(f"{where}: map keys are not the truncation's ids")
                continue
            if any(table.get(target) != source for source, target in table.items()):
                errors.append(f"{where}: map is not an involutive permutation")
                continue
            want = max(weights[index[s]] / weights[index[t]] for s, t in table.items())
            if not _close(entry["ratio_sup"], want):
                errors.append(f"{where}: ratio_sup {entry['ratio_sup']} != {want!r}")
    return errors


def check_verify(reports: list[dict], expect: dict) -> list[str]:
    """Every seed of the batch passed."""
    if len(reports) != len(expect["seeds"]):
        return [f"verify: {len(reports)} reports for {len(expect['seeds'])} seeds"]
    errors = []
    for seed, report in zip(expect["seeds"], reports):
        if report.get("seed") != seed or report.get("passed") is not True:
            errors.append(f"verify seed {seed}: not passed")
    return errors


def check(workload: str, reports: list[dict], expect: dict) -> list[str]:
    """Errors found in one operation's reports (in ``Plan.outputs`` order)."""
    if workload == "verify_suites":
        return check_verify(reports, expect)
    single = {"analyze_ladder": check_analyze, "spectrum_ladder": check_spectrum,
              "adversary_docs": check_adversary}[workload]
    return single(reports[0], expect)
