"""The level-class path of ``analyze`` and ``spectrum`` against the vertex path.

A spec with a generated tree, a family weight and a builtin map is analyzed
by level classes. Forcing the vertex path on the same spec must give the
same refusal, and reports and spectrum CSVs that agree on every key, string,
verdict, integer and witness. Their numbers may differ in the last digits:
class sums are exact and rounded once, while vertex sums follow
``np.bincount`` (preimage weights) and pairwise ``np.sum`` (sums over the
vertices). The tests below pin each rule against exact rational sums."""

import json
import math
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectree import analysis, compop
from spectree.analysis import (parse_analysis_spec, read_analysis_spec, real_str, report_json,
                               run_analyze, run_spectrum, spectrum_csv)
from spectree.cli import main
from spectree.schatten import schatten_sums
from spectree.selfmap import level_classes

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


REL_TOL = 1e-13  # an exact class sum against its vertex sum in numpy's order
ORACLE_ULPS = 4  # of the largest singular value, for oracle.max_abs_difference
WITNESSES = {"ratio_sup_witness", "operator_norm_witness", "witness_vertex"}  # vertex names


def numbers_agree(got, want):
    """Equal values, or numbers (numeric strings among them) within
    ``REL_TOL`` relative of each other."""
    if isinstance(got, str) and isinstance(want, str) and got != want:
        try:
            got, want = float(got), float(want)
        except ValueError:
            return False
    if type(got) is float and type(want) is float:
        return got == want or math.isclose(got, want, rel_tol=REL_TOL)
    return type(got) is type(want) and got == want


def assert_values_agree(got, want, at="report"):
    """Parsed reports agree on every key and list length; witnesses are
    equal, and every other leaf agrees as :func:`numbers_agree` says."""
    if isinstance(got, dict) and isinstance(want, dict):
        assert got.keys() == want.keys(), at
        for key in got:
            if key in WITNESSES:
                assert got[key] == want[key], f"{at}.{key}"
            else:
                assert_values_agree(got[key], want[key], f"{at}.{key}")
    elif isinstance(got, list) and isinstance(want, list):
        assert len(got) == len(want), at
        for i, (g, w) in enumerate(zip(got, want)):
            assert_values_agree(g, w, f"{at}[{i}]")
    else:
        assert numbers_agree(got, want), (at, got, want)


def assert_reports_agree(by_classes, by_vertex):
    """Report texts agree as :func:`assert_values_agree` says, except that
    each entry's ``oracle.max_abs_difference``, a difference of nearly equal
    values, agrees absolutely: within a few ulps of the entry's largest
    singular value."""
    got, want = json.loads(by_classes), json.loads(by_vertex)
    for g, w in zip(got.get("entries", []), want.get("entries", [])):
        if not isinstance(g.get("oracle"), dict) or "max_abs_difference" not in g["oracle"]:
            continue
        a, b = g["oracle"].pop("max_abs_difference"), w["oracle"].pop("max_abs_difference", None)
        bound = ORACLE_ULPS * math.ulp(float(g["top_singular_values"][0]))
        assert b is not None and abs(float(a) - float(b)) <= bound, (a, b, bound)
    assert_values_agree(got, want)


def assert_csv_agree(by_classes, by_vertex):
    """The same header, row count and ranks; singular values as
    :func:`numbers_agree` says."""
    got, want = by_classes.splitlines(), by_vertex.splitlines()
    assert got[0] == want[0] and len(got) == len(want)
    for g, w in zip(got[1:], want[1:]):
        (g_rank, *g_values), (w_rank, *w_values) = g.split(","), w.split(",")
        assert g_rank == w_rank and len(g_values) == len(w_values), (g, w)
        assert all(map(numbers_agree, g_values, w_values)), (g, w)


def assert_paths_agree(doc, run=outcome):
    assert analysis._by_level_classes(parse_analysis_spec(doc))
    by_classes = run(doc)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_by_level_classes", lambda spec: False)
        by_vertex = run(doc)
    if isinstance(by_classes, str):  # an analyze report
        assert isinstance(by_vertex, str), by_vertex
        assert_reports_agree(by_classes, by_vertex)
    elif isinstance(by_classes[0], type) or isinstance(by_vertex[0], type):  # a refusal
        assert by_classes == by_vertex
    else:  # a spectrum report and its CSV
        assert_reports_agree(by_classes[0], by_vertex[0])
        assert_csv_agree(by_classes[1], by_vertex[1])
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
    # only the entries the oracle checks need a vertex operator, and one tree serves
    # them all: it is built at the deepest of them and truncated to each
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
    assert built == [8]


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


EXTREMES = [1 / 3, 1e300, 5e-324, 1e308, 0.0, -0.0, -2.5, math.inf, -math.inf, math.nan]
VALUES = st.floats() | st.sampled_from(EXTREMES)
COUNTS = st.integers(0, 300) | st.sampled_from([0, 7, 8, 128, 129, 40_000, 2 ** 40])


def same_sum(got, want):
    return (got == want and math.copysign(1, got) == math.copysign(1, want)
            or math.isnan(got) and math.isnan(want))


def exact_reference(row, counts):
    """The sum of ``count * value`` over the terms with a nonzero count, by
    ``Fraction``, rounded once to a float; inf and nan as IEEE adds them."""
    terms = [(x, c) for x, c in zip(row, counts) if c]
    special = [x for x, _ in terms if not math.isfinite(x)]
    if special:
        return special[0] if all(x == special[0] for x in special) else math.nan
    total = sum(Fraction(x) * c for x, c in terms)
    try:
        return float(total)
    except OverflowError:  # float() of a Fraction past the float range
        return math.inf if total > 0 else -math.inf


@settings(deadline=None)
@given(st.lists(st.tuples(VALUES, VALUES, COUNTS), max_size=8))
@example([(1e308, -1e308, 2), (1.0, -1.0, 1)])  # overflow to inf and -inf
@example([(math.inf, math.nan, 1), (-math.inf, 1.0, 3)])  # inf + -inf, and nan
@example([(-0.0, 5e-324, 2 ** 40), (-0.0, -5e-324, 2 ** 40)])  # a signed zero; subnormals
def test_exact_sum_is_the_correctly_rounded_sum_of_the_runs(runs):
    # a two-row stack: each row's sum is its one-row call's and the exact one's
    stack = np.array([[r[0] for r in runs], [r[1] for r in runs]], dtype=np.float64)
    counts = np.array([c for *_, c in runs], dtype=np.int64)
    got = compop._exact_sum(stack, counts)
    assert got.shape == (2,)
    for row, row_sum in zip(stack.tolist(), got):
        want = exact_reference(row, counts.tolist())
        assert same_sum(row_sum, want), (row, row_sum, want)
        assert same_sum(compop._exact_sum(np.array([row]), counts)[0], want)


def test_a_two_million_term_preimage_sums_exactly():
    # level_shift(20) sends every vertex above depth 21 to the root: one
    # preimage of 2,097,151 terms, summed in O(levels)
    doc = spec_doc({"generator": "bary", "branching": 2}, WEIGHTS[1],
                   {"builtin": "level_shift", "params": {"k": 20}}, 2, [21])
    (view, sizes, _), = analysis._analyzed(parse_analysis_spec(doc))
    assert sizes["vertex_count"] == 2 ** 22 - 1 and view.weights[0] == 1.0
    preimage = sum(Fraction(float(view.weights[n])) * 2 ** n for n in range(21))
    assert view.profile.preimage_count[0] == 2 ** 21 - 1
    assert view._h[0] == float(preimage)  # w(root) is 1
    hs_squared = sum(Fraction(float(h)) * int(c) for h, c in zip(view._h, view._class_sizes))
    assert schatten_sums(view, [2.0])[0] == float(hs_squared)


def class_sums_by_runs(view):
    """Each class's h by :func:`compop._exact_sum` of its preimage runs, over
    the weight of the class's level."""
    level = np.repeat(np.arange(view.weights.size), np.diff(view.classes.class_start))
    sums = []
    for i in range(view.classes.first.size):
        levels, reps = view._preimage_runs(i)
        sums.append(compop._exact_sum(view.weights[levels][None], reps)[0])
    return np.array(sums) / view.weights[level]


@pytest.mark.parametrize("branching", [1, 2, 3, 4])
def test_h_is_the_exact_sum_of_the_preimage_runs(branching):
    # a preimage in one level sums as one product, the rest by _exact_sum: alike bit for bit
    for depth in (0, 1, 2, 3, 5):
        for branch_until in (None, 0, 1, depth - 1):
            if branch_until is not None and branch_until < 0:
                continue
            tree = {"generator": "bary", "branching": branching, "branch_until": branch_until}
            for weight in WEIGHTS + [{"family": "geometric", "params": {"ratio": 0.3}}]:
                for symbol in map_docs(depth):
                    doc = spec_doc(tree, weight, symbol, 2, [depth])
                    (view, *_), = analysis._analyzed(parse_analysis_spec(doc))
                    assert np.array_equal(view._h, class_sums_by_runs(view)), doc


@pytest.mark.parametrize("lift", [1, 2])
def test_a_preimage_count_past_2_53_takes_the_exact_sum(monkeypatch, lift):
    # levels of 1, 1 and 2**53 + 3 vertices: under the parent map (lift 1) the
    # root's preimage spreads over two levels, and the vertex of level 1 has a
    # one-level preimage of 2**53 + 3, which is no float; under lift 2 the
    # root's preimage is all 2**53 + 5 vertices
    start = np.cumsum([0, 1, 1, 2 ** 53 + 3])
    weights = np.array([1.0, 0.7, 3.0])
    view = compop.LevelClassSpec(start, weights, level_classes(lift, start), 2.0)
    summed, exact_sum = [], compop._exact_sum

    def counted(stack, counts):
        summed.append(int(counts.sum()))
        return exact_sum(stack, counts)

    monkeypatch.setattr(compop, "_exact_sum", counted)
    h = view._h
    assert summed == ([2, 2 ** 53 + 3] if lift == 1 else [2 ** 53 + 5])
    want = []
    for i, level in enumerate([0, 1, 2]):
        levels, reps = view._preimage_runs(i)
        exact = sum(Fraction(float(weights[n])) * int(r) for n, r in zip(levels, reps))
        want.append(float(exact) / weights[level])
    assert h.tolist() == want
    # one product would round the count first: 3 * float(2**53 + 3) is not the exact sum
    assert 3.0 * float(2 ** 53 + 3) != float(3 * (2 ** 53 + 3))


def gamma(n):
    """Higham's bound on the relative error of a float sum of n positive
    terms in any order, nu / (1 - nu) with u the unit roundoff
    (Accuracy and Stability of Numerical Algorithms, 2002, section 4.2)."""
    nu = n * 2.0 ** -53
    return nu / (1 - nu)


@pytest.mark.parametrize("tree", [{"generator": "bary", "branching": 2},
                                  {"generator": "bary", "branching": 3, "branch_until": 2}])
@pytest.mark.parametrize("symbol", [{"builtin": "level_shift", "params": {"k": 2}},
                                    {"builtin": "depth_square"}])
def test_each_path_sums_by_its_rule(tree, symbol):
    # the specs of the spectrum golden reports whose digits the exact class sums
    # changed: each class sum is the exact one, each vertex sum within gamma_n of it
    doc = spec_doc(tree, WEIGHTS[1], symbol, 2, [1, 2, 4]) | {"schatten_exponents": [1, 2, 3]}
    spec, qs = parse_analysis_spec(doc), [1.0, 2.0, 3.0, 2.0]  # the report's q = 2 row, then hs_norm's
    for by_classes in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_by_level_classes", lambda spec, keep=by_classes: keep)
            report, _ = run_spectrum(spec)
            views = [view for view, *_ in analysis._analyzed(spec)]
        for entry, view in zip(report["entries"], views):
            sums = schatten_sums(view, qs).tolist()
            assert entry["schatten_sums"] == {real_str(q): real_str(s) for q, s in zip(qs[:3], sums)}
            assert entry["hs_norm"] == real_str(math.sqrt(sums[-1]))
            for q, got in zip(qs, sums):
                exact = sum(Fraction(t) * c for t, c in zip((view._h ** (q / 2)).tolist(),
                                                             view._class_sizes.tolist()))
                if by_classes:
                    assert got == float(exact), (q, got, exact)
                else:
                    n = entry["vertex_count"]
                    assert abs(Fraction(got) - exact) <= Fraction(gamma(n)) * exact, (q, got, exact)



def assert_near_exact(rounded, row, counts):
    """``rounded``, a float sum of ``counts[j]`` copies of each ``row[j]`` in
    some order, is within gamma_n of the sum of the absolute terms of the
    exact sum (Higham, section 4.2); if it is not finite, a partial sum
    overflowed, which needs that sum near the float maximum."""
    n = sum(counts)
    total = sum(Fraction(x) * c for x, c in zip(row, counts))
    size = sum(abs(Fraction(x)) * c for x, c in zip(row, counts))
    if math.isfinite(rounded):
        assert abs(Fraction(rounded) - total) <= Fraction(gamma(n)) * size, (rounded, total)
    else:
        assert size * (1 + Fraction(gamma(n))) >= Fraction(sys.float_info.max), (rounded, size)


def sequential(terms):
    """The left-to-right float sum of ``terms``, as ``np.bincount`` adds a bin."""
    total = 0.0
    for x in terms:
        total += x
    return total


def rounds_nowhere(terms):
    """Whether every left-to-right partial sum of ``terms`` is a float."""
    total = Fraction(0)
    for x in terms:
        total += Fraction(x)
        if abs(total) > sys.float_info.max or Fraction(float(total)) != total:
            return False
    return True


def assert_bincount_sum(values, reps):
    """The vertex path's preimage weight, the ``np.bincount`` sum of
    ``reps[j]`` copies of each ``values[j]``, is their sequential sum: within
    gamma_n of the exact class sum, and equal to it where no step rounds."""
    terms = np.repeat(values, reps)
    want = np.bincount(np.zeros(terms.size, dtype=np.int64), weights=terms)[0]
    assert want == sequential(terms.tolist())
    assert_near_exact(want, values.tolist(), reps.tolist())
    if rounds_nowhere(terms.tolist()):
        assert compop._exact_sum(values[None], reps)[0] == want, (values, reps)


DYADIC = st.builds(math.ldexp, st.integers(1, 2 ** 10), st.integers(-20, 0))  # sums that round nowhere


@settings(deadline=None)
@given(st.lists(st.floats(1e-310, 1e308) | DYADIC, min_size=1, max_size=6),
       st.lists(st.integers(0, 40), min_size=6, max_size=6))
def test_sequential_sum_is_the_bincount_sum(values, reps):
    values, reps = np.array(values), np.array(reps[:len(values)])
    reps[0] += 1  # a nonempty sum
    assert_bincount_sum(values, reps)


# 384 terms bounded an earlier Python-loop replay of bincount's order; the
# counts stay as sizes on both sides of it and well past it
@pytest.mark.parametrize("terms", [2, 384, 385, 5000])
def test_sequential_sum_is_the_bincount_sum_on_both_sides_of_the_loop_bound(terms):
    rng = np.random.default_rng(terms)
    specials = [1e308, 5e-324, 1.0, 2.0 ** -52, 0.1]
    for _ in range(200):
        runs = int(rng.integers(1, min(terms, 8) + 1))
        reps = np.diff(np.sort(np.append(rng.choice(np.arange(1, terms), runs - 1, replace=False),
                                         [0, terms])))
        values = np.where(rng.random(runs) < 0.3, rng.choice(specials, runs),
                          10.0 ** rng.uniform(-300, 300, runs))
        assert_bincount_sum(values, reps)
    # overflow to inf, as bincount's sum does, without a warning
    assert compop._exact_sum(np.array([[1e308]]), np.array([terms]))[0] == math.inf


@settings(deadline=None)
@given(st.lists(st.tuples(VALUES.filter(math.isfinite), VALUES.filter(math.isfinite),
                          st.integers(0, 300) | st.sampled_from([0, 7, 8, 128, 129, 40_000])),
                max_size=8))
def test_run_sum_is_the_numpy_sum_of_the_runs(runs):
    # the vertex path sums over the vertices by pairwise np.sum: on each row of a
    # two-row stack of runs, within gamma_n of the class path's exact sum
    stack = np.array([[r[0] for r in runs], [r[1] for r in runs]], dtype=np.float64)
    counts = np.array([c for *_, c in runs], dtype=np.int64)
    for row, row_sum in zip(stack, compop._exact_sum(stack, counts)):
        assert same_sum(row_sum, exact_reference(row.tolist(), counts.tolist()))
        with np.errstate(over="ignore", invalid="ignore"):
            pairwise = np.sum(np.repeat(row, counts))
        assert_near_exact(pairwise, row.tolist(), counts.tolist())
