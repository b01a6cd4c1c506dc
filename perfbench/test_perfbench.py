"""Tests of the benchmark itself: input generation, output checks, tracing."""

import copy
import json
import time

import numpy as np
import pytest

import spans
import workloads
from spectree import cli, verify
from spectree.analysis import read_analysis_spec, run_adversary, run_analyze, run_spectrum


def spec_file(tmp_path, name, **fields):
    doc = json.loads((workloads.DOCS / f"{name}.json").read_text(encoding="utf-8"))
    doc.update(fields)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_level_tree_shape():
    parent = workloads.level_tree(np.random.default_rng(0), 6)
    assert parent.size == 2 ** 7 - 1 and parent[0] == -1
    for k in range(1, 7):
        level = parent[2 ** k - 1: 2 ** (k + 1) - 1]
        # every parent sits one level up, and every vertex there has a child
        assert sorted(set(level.tolist())) == list(range(2 ** (k - 1) - 1, 2 ** k - 1))


def test_generators_are_deterministic_per_seed(tmp_path):
    runs = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        workdir = tmp_path / label
        workdir.mkdir()
        workloads.adversary_inputs(seed, workdir, levels=6, ladder=(3, 6))
        runs[label] = {f: (workdir / f).read_bytes() for f in ("tree.json", "weight.json")}
    assert runs["a"] == runs["b"]
    assert runs["a"]["tree.json"] != runs["c"]["tree.json"]
    assert runs["a"]["weight.json"] != runs["c"]["weight.json"]
    for workload in ("analyze_ladder", "spectrum_ladder", "verify_suites"):
        plans = [workloads.prepare(workload, seed, tmp_path) for seed in (1, 2)]
        assert plans[0] == plans[1]


def corrupted(report, edit):
    bad = copy.deepcopy(report)
    edit(bad)
    return bad


def test_analyze_check_rejects_corrupted_reports(tmp_path):
    report = run_analyze(read_analysis_spec(spec_file(tmp_path, "analyze_ladder",
                                                      depth_ladder=[4, 9])))
    expect = {"ladder": [4, 9]}
    assert workloads.check_analyze(report, expect) == []

    def bump_sup(r):
        r["entries"][1]["boundedness"]["ratio_sup"] = "2.50000000001"

    def flatten_trend(r):
        r["trend"]["verdict"] = "plateau"

    for edit in (bump_sup, flatten_trend):
        assert workloads.check_analyze(corrupted(report, edit), expect)


def test_spectrum_check_rejects_corrupted_reports(tmp_path):
    report = run_spectrum(read_analysis_spec(spec_file(tmp_path, "spectrum_ladder",
                                                       depth_ladder=[3, 4, 9])))[0]
    expect = {"ladder": [3, 4, 9]}
    assert workloads.check_spectrum(report, expect) == []

    def bump_hs(r):
        r["entries"][0]["hs_norm"] = "2.83"

    def extra_fixed_point(r):
        r["entries"][1]["fixed_point_count"] = 2

    def oracle_disagrees(r):
        r["entries"][1]["oracle"]["max_abs_difference"] = "1e-06"

    def skip_not_reported(r):
        r["entries"][2]["oracle"]["notice"] = None

    for edit in (bump_hs, extra_fixed_point, oracle_disagrees, skip_not_reported):
        assert workloads.check_spectrum(corrupted(report, edit), expect)


def test_adversary_check_rejects_corrupted_reports(tmp_path):
    spec, expect = workloads.adversary_inputs(3, tmp_path, levels=6, ladder=(3, 6))
    report = run_adversary(read_analysis_spec(spec))
    assert workloads.check_adversary(report, expect) == []

    def not_found(r):
        r["vanishing_weight"]["verdict"] = "no adversary found"

    def not_involutive(r):
        table = r["unbounded_weight"]["entries"][1]["map"]["map"]
        moved = next(k for k, v in table.items() if k != v)
        table[moved] = moved  # its partner still maps to it

    def bump_sup(r):
        entry = r["unbounded_weight"]["entries"][0]
        entry["ratio_sup"] = repr(float(entry["ratio_sup"]) * (1 + 1e-9))

    for edit in (not_found, not_involutive, bump_sup):
        assert workloads.check_adversary(corrupted(report, edit), expect)


def test_verify_check_rejects_a_failed_suite():
    report = verify.run_verify(["adversary"], seed=0)
    expect = {"seeds": [0]}
    assert workloads.check_verify([report], expect) == []
    assert workloads.check_verify([corrupted(report, lambda r: r.update(passed=False))], expect)
    assert workloads.check_verify([], expect)


def test_traced_self_times_add_up_to_wall_time(tmp_path):
    spec = spec_file(tmp_path, "spectrum_ladder", depth_ladder=[3, 4])
    ops = [["spectrum", str(spec), "--out", str(tmp_path / "out.json")],
           ["verify", "--suite", "lpspace", "--out", str(tmp_path / "verify.json")]]
    original = cli.main
    tracer = spans.Tracer()
    walls = []
    with spans.instrumented(tracer):
        assert cli.main is not original
        for argv in ops:
            start = time.perf_counter()
            assert cli.main(argv) == 0
            walls.append(time.perf_counter() - start)
    assert cli.main is original
    assert not any(hasattr(f, "__wrapped__") for f in verify.SUITES.values())

    names = {s.name for s in tracer.spans}
    # registry entries and re-imported names are wrapped too
    assert {"verify.suite_lpspace", "lpspace.norm_p", "oracle.jacobi_eigenvalues",
            "analysis.report_json", "tree.build_bary"} <= names
    metrics = spans.layer_metrics(tracer.spans, walls, walls)
    self_total = sum(v for k, v in metrics.items()
                     if k.endswith(".self_s") and k[:-len(".self_s")] in spans.LAYERS)
    assert self_total + metrics["trace.unattributed_s"] == pytest.approx(
        sum(walls) / len(walls), rel=1e-9)
    assert metrics["oracle.jacobi.calls"] == 1  # two checked entries over two operations
    assert set(spans.PER_LAYER) <= set(metrics)


def test_instrumented_only_wraps_the_named_functions(tmp_path):
    spec = spec_file(tmp_path, "spectrum_ladder", depth_ladder=[3, 4])
    tracer = spans.Tracer(probe=False)
    with spans.instrumented(tracer, only={"oracle.jacobi_eigenvalues"}):
        assert cli.main(["spectrum", str(spec), "--out", str(tmp_path / "out.json")]) == 0
    assert tracer.spans and {s.name for s in tracer.spans} == {"oracle.jacobi_eigenvalues"}
    assert all(s.size is None for s in tracer.spans)
