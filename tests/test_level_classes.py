"""The level-class path of ``analyze`` and ``spectrum`` against the vertex path.

A spec with a generated tree, a family weight and a builtin map is analyzed
by level classes. Forcing the vertex path on the same spec must give the
same report text and spectrum CSV byte for byte, and the same refusal."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectree import analysis, compop
from spectree.analysis import (parse_analysis_spec, read_analysis_spec, report_json, run_analyze,
                               run_spectrum, spectrum_csv)
from spectree.cli import main

BENCH_DOCS = Path(__file__).resolve().parents[1] / "perfbench" / "docs"
P_GRID = (1, 1.5, 2, 3)
WEIGHTS = [
    {"family": "constant", "params": {"value": 2.5}},
    {"family": "reciprocal_depth"},
    {"family": "geometric", "params": {"ratio": 0.5}},
]


def map_docs(depth):
    shifts = sorted({0, 1, 2, depth, depth + 5, 10 ** 30})
    return ([{"builtin": name} for name in ("identity", "parent", "depth_square")]
            + [{"builtin": "level_shift", "params": {"k": k}} for k in shifts])


def spec_doc(tree, weight, symbol, p, ladder, decay=0.1):
    return {"tree": tree, "weight": weight, "map": symbol, "p": p, "depth_ladder": ladder,
            "tolerances": {"compactness_decay_ratio": decay}}


def outcome(doc):
    """The report text ``analyze`` writes for ``doc``, or how it refuses it."""
    try:
        return report_json(run_analyze(parse_analysis_spec(doc)))
    except ValueError as exc:  # the CLI's exit 2, with this message
        return type(exc), str(exc)


def spectrum_outcome(doc):
    """The report text and CSV ``spectrum`` writes for ``doc``, or how it
    refuses it."""
    try:
        report, values = run_spectrum(parse_analysis_spec(doc))
        return report_json(report), spectrum_csv(*values)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_paths_agree(doc, run=outcome):
    assert analysis._by_level_classes(parse_analysis_spec(doc))
    by_classes = run(doc)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_by_level_classes", lambda spec: False)
        by_vertex = run(doc)
    assert by_classes == by_vertex
    return by_classes


@pytest.mark.parametrize("branching", [1, 2, 3, 4])
def test_every_builtin_and_family_agrees_on_small_trees(branching):
    for depth in (0, 1, 2, 3, 5):
        for branch_until in (None, 0, 1, depth - 1):
            tree = {"generator": "bary", "branching": branching, "branch_until": branch_until}
            if branch_until is not None and branch_until < 0:
                continue
            for i, (weight, symbol) in enumerate(
                    (w, m) for w in WEIGHTS for m in map_docs(depth)):
                report = assert_paths_agree(
                    spec_doc(tree, weight, symbol, P_GRID[i % 4], list(range(depth + 1))))
                assert isinstance(report, str)


@st.composite
def generated_specs(draw):
    branching = draw(st.integers(1, 4))
    depth = draw(st.integers(0, 8))
    branch_until = draw(st.one_of(st.none(), st.integers(0, depth)))
    ladder = sorted(draw(st.sets(st.integers(0, max(depth - 1, 0)), max_size=3)) | {depth})
    weight = draw(st.one_of(
        st.just({"family": "reciprocal_depth"}),
        st.builds(lambda c: {"family": "constant", "params": {"value": c}},
                  st.sampled_from([1.0, 0.3, 7.0, 1e-300, 1e300])),
        # 1e77 ** 4 is near the float maximum, so the sums above it overflow;
        # 1.5e77 ** 4 itself overflows and is refused
        st.builds(lambda r: {"family": "geometric", "params": {"ratio": r}},
                  st.sampled_from([0.5, 0.9, 1.5, 3.0, 1e-3, 1e77, 1.5e77]))))
    symbol = draw(st.sampled_from(map_docs(depth)))
    return spec_doc({"generator": "bary", "branching": branching, "branch_until": branch_until},
                    weight, symbol, draw(st.sampled_from(P_GRID)), ladder,
                    draw(st.sampled_from([0.1, 0.5])))


@settings(max_examples=150, deadline=None)
@given(generated_specs())
def test_generated_specs_agree(doc):
    assert_paths_agree(doc)


@settings(max_examples=20, deadline=None)
@given(st.integers(1000, 1100), st.sampled_from([2.0, 0.5, 0.51]),
       st.sampled_from(map_docs(1000)[:3] + [{"builtin": "level_shift", "params": {"k": 2000}}]))
def test_paths_deep_enough_to_overflow_or_underflow_agree(depth, ratio, symbol):
    # 2 ** 1024 overflows and 0.5 ** 1075 underflows: both are refused at that
    # level's vertex; 0.51 ** depth is subnormal but positive
    doc = spec_doc({"generator": "bary", "branching": 1},
                   {"family": "geometric", "params": {"ratio": ratio}}, symbol, 2,
                   [depth // 2, depth])
    result = assert_paths_agree(doc)
    refused_at = {2.0: 1024, 0.5: 1075}.get(ratio)
    if refused_at is not None and depth >= refused_at:
        assert result[1].startswith(f"weight at vertex '{refused_at}'")


def test_the_generator_cap_is_refused_alike_on_both_paths(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_doc({"generator": "bary", "branching": 2}, WEIGHTS[1],
                                        {"builtin": "parent"}, 2, [22])), encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    by_classes = capsys.readouterr().err
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_by_level_classes", lambda spec: False)
        assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == by_classes
    assert "refusing to materialize more than 5000000 vertices" in by_classes


@settings(deadline=None)
@given(st.lists(st.floats(1e-310, 1e308), min_size=1, max_size=6),
       st.lists(st.integers(0, 40), min_size=6, max_size=6))
def test_sequential_sum_is_the_bincount_sum(values, reps):
    values, reps = np.array(values), np.array(reps[:len(values)])
    reps[0] += 1  # a nonempty sum
    want = np.bincount(np.zeros(int(reps.sum()), dtype=np.int64),
                       weights=np.repeat(values, reps))[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compop, "_SUM_CHUNK", 7)  # several chunks, and runs split across them
        patch.setattr(compop, "_LOOP_TERMS", 0)  # so that these few terms take numpy
        assert compop._sequential_sum(values, reps) == want
    assert compop._sequential_sum(values, reps) == want


@pytest.mark.parametrize("terms", [2, compop._LOOP_TERMS, compop._LOOP_TERMS + 1, 5000])
def test_sequential_sum_is_the_bincount_sum_on_both_sides_of_the_loop_bound(terms):
    rng = np.random.default_rng(terms)
    specials = [1e308, 5e-324, 1.0, 2.0 ** -52, 0.1]
    for _ in range(200):
        runs = int(rng.integers(1, min(terms, 8) + 1))
        reps = np.diff(np.sort(np.append(rng.choice(np.arange(1, terms), runs - 1, replace=False),
                                         [0, terms])))
        values = np.where(rng.random(runs) < 0.3, rng.choice(specials, runs),
                          10.0 ** rng.uniform(-300, 300, runs))
        want = np.bincount(np.zeros(terms, dtype=np.int64), weights=np.repeat(values, reps))[0]
        assert compop._sequential_sum(values, reps) == want, (values, reps)
    # overflow to inf, as bincount's sum does, without a warning
    assert compop._sequential_sum(np.array([1e308]), np.array([terms])) == math.inf


SPECTRUM_MAPS = [{"builtin": "identity"}, {"builtin": "parent"},
                 {"builtin": "level_shift", "params": {"k": 2}}, {"builtin": "depth_square"}]
# the default cap (600 vertices), a cap that the deeper entries pass, and no oracle
ORACLES = [{}, {"max_vertices": 20}, {"enabled": False}]


@pytest.mark.parametrize("branch_until", [None, 2])
@pytest.mark.parametrize("branching", [1, 2, 3])
def test_every_builtin_and_family_agrees_on_spectrum(branching, branch_until):
    tree = {"generator": "bary", "branching": branching, "branch_until": branch_until}
    for i, (weight, symbol) in enumerate((w, m) for w in WEIGHTS for m in SPECTRUM_MAPS):
        doc = spec_doc(tree, weight, symbol, 2, [0, 2, 4, 7]) | {
            "schatten_exponents": [1, 2, 3.5], "oracle": ORACLES[i % 3]}
        report, csv_text = assert_paths_agree(doc, spectrum_outcome)
        entries = json.loads(report)["entries"]
        cap = doc["oracle"].get("max_vertices", 600) if doc["oracle"].get("enabled", True) else 0
        assert [e["oracle"]["checked"] for e in entries] == [e["vertex_count"] <= cap
                                                             for e in entries]
        assert len(csv_text.splitlines()) == 1 + entries[-1]["vertex_count"]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 7), st.one_of(st.none(), st.integers(0, 7)),
       st.sampled_from(WEIGHTS[:2] + [{"family": "geometric", "params": {"ratio": r}}
                                      for r in (0.5, 1.5, 3.0)]),
       st.sampled_from(SPECTRUM_MAPS + [{"builtin": "level_shift", "params": {"k": 9}}]),
       st.sampled_from(ORACLES), st.lists(st.sampled_from([1, 1.5, 2, 3, 4]), min_size=1,
                                          max_size=3, unique=True))
def test_generated_spectrum_specs_agree(branching, depth, branch_until, weight, symbol,
                                        oracle, exponents):
    doc = spec_doc({"generator": "bary", "branching": branching, "branch_until": branch_until},
                   weight, symbol, 2, sorted({depth // 2, depth}))
    assert_paths_agree(doc | {"oracle": oracle, "schatten_exponents": exponents},
                       spectrum_outcome)


def test_spectrum_csv_files_agree(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_doc({"generator": "bary", "branching": 2}, WEIGHTS[2],
                                        {"builtin": "parent"}, 2, [3, 10])), encoding="utf-8")
    written = []
    for by_classes in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_by_level_classes", lambda spec, keep=by_classes: keep)
            argv = ["spectrum", str(path), "--csv", str(tmp_path / "s.csv"),
                    "--out", str(tmp_path / "s.json")]
            assert main(argv) == 0
        written.append(((tmp_path / "s.csv").read_bytes(), (tmp_path / "s.json").read_bytes()))
    assert written[0] == written[1]
    assert written[0][0].count(b"\n") == 1 + 2047


def test_spectrum_ladder_takes_the_class_path(monkeypatch):
    # only the entries the oracle checks form a tree, and they are formed at their own depth
    spec = read_analysis_spec(BENCH_DOCS / "spectrum_ladder.json")
    assert analysis._by_level_classes(spec)
    built, original = [], analysis.build_bary

    def counted(branching, depth, branch_until=None):
        built.append(depth)
        return original(branching, depth, branch_until)

    monkeypatch.setattr(analysis, "build_bary", counted)
    report, _ = run_spectrum(spec)
    assert [e["vertex_count"] for e in report["entries"]] == [127, 255, 511, 262143]
    assert [e["oracle"]["checked"] for e in report["entries"]] == [True, True, True, False]
    assert built == [6, 7, 8]


def test_spectrum_past_the_oracle_cap_peaks_below_one_mib():
    # level classes: the peak does not grow with the vertex count
    for ladder, vertices in [([17], 262_143), ([17, 21], 4_194_303)]:
        spec = parse_analysis_spec({
            "tree": {"generator": "bary", "branching": 2}, "weight": WEIGHTS[2],
            "map": {"builtin": "level_shift", "params": {"k": 3}}, "p": 2,
            "depth_ladder": ladder, "schatten_exponents": [1, 2, 4]})
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report, values = run_spectrum(spec)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report["entries"][-1]["vertex_count"] == vertices
        assert not report["entries"][-1]["oracle"]["checked"]
        assert int(values[1].sum()) == vertices
        assert peak < 2 ** 20, f"{peak / 2 ** 20:.2f} MiB at {vertices} vertices"


EXTREMES = [1 / 3, 1e300, 5e-324, 1e308, 0.0, -0.0, -2.5, math.inf]


@settings(deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False) | st.sampled_from(EXTREMES),
                          st.integers(0, 300) | st.sampled_from([0, 7, 8, 128, 129, 40_000])),
                max_size=8))
def test_run_sum_is_the_numpy_sum_of_the_runs(runs):
    values = np.array([v for v, _ in runs], dtype=np.float64)
    counts = np.array([c for _, c in runs], dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.sum(np.repeat(values, counts))
    got = compop._run_sum(values, counts)
    assert (got == want and math.copysign(1, got) == math.copysign(1, want)
            or math.isnan(got) and math.isnan(want))
