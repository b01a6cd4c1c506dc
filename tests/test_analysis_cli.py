import copy
import json
import math
import pickle
import tempfile
import time
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectree import analysis, compop
from spectree import oracle as oracle_mod
from spectree import (DocumentError, SelfMap, adversary_unbounded, basis_vector, build_bary,
                      dump_map, dump_tree, load_map, load_tree, load_weight, norm_p, truncate)
from spectree.analysis import (_restrict, parse_analysis_spec, read_analysis_spec, real_str,
                               report_json, run_adversary, run_analyze, run_spectrum,
                               spectrum_csv)
from spectree.cli import main
from spectree.selfmap import _MapTable
from spectree.tree import Tree


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def base_doc(**overrides):
    doc = {
        "schema_version": 1,
        "tree": {"generator": "bary", "branching": 2},
        "weight": {"family": "reciprocal_depth"},
        "map": {"builtin": "depth_square"},
        "p": 2,
        "depth_ladder": [4, 9],
        "schatten_exponents": [1, 2],
    }
    doc.update(overrides)
    return doc


def test_parse_rejects_malformed_documents(tmp_path):
    with pytest.raises(DocumentError, match='"p"'):
        parse_analysis_spec(base_doc() | {"p": "two"})
    bad = base_doc()
    del bad["p"]
    with pytest.raises(DocumentError, match='"p"'):
        parse_analysis_spec(bad)
    with pytest.raises(DocumentError, match="strictly increasing"):
        parse_analysis_spec(base_doc(depth_ladder=[4, 4]))
    with pytest.raises(DocumentError, match="depth_ladder"):
        parse_analysis_spec(base_doc(depth_ladder=[]))
    with pytest.raises(DocumentError, match="schema_version"):
        parse_analysis_spec(base_doc(schema_version=99))
    with pytest.raises(DocumentError, match="not found"):
        parse_analysis_spec(base_doc(tree={"file": "missing.json"}), tmp_path)
    with pytest.raises(DocumentError, match="branching"):
        parse_analysis_spec(base_doc(tree={"generator": "bary"}))
    with pytest.raises(DocumentError, match="p"):
        parse_analysis_spec(base_doc(p=0.5))


def test_analyze_reproduces_the_depth_square_ladder(tmp_path):
    spec = read_analysis_spec(write_spec(tmp_path, base_doc(depth_ladder=[4, 9, 16])))
    report = run_analyze(spec)
    sups = [float(Fraction(1 + n * n, 1 + n)) for n in (2, 3, 4)]
    got = [float(e["boundedness"]["ratio_sup"]) for e in report["entries"]]
    assert got == pytest.approx(sups, rel=1e-12)
    assert report["trend"]["verdict"] == "unbounded trend"
    assert [e["effective_domain_depth"] for e in report["entries"]] == [2, 3, 4]
    assert all(e["boundedness"]["injective"] for e in report["entries"])
    assert "conventions" in report and len(report["conventions"]) >= 3


def test_analyze_identity_spec_report(tmp_path):
    doc = base_doc(weight={"family": "constant", "params": {"value": 1.0}},
                   map={"builtin": "identity"}, depth_ladder=[2, 3])
    report = run_analyze(read_analysis_spec(write_spec(tmp_path, doc)))
    for entry in report["entries"]:
        b = entry["boundedness"]
        assert float(b["operator_norm"]) == 1.0
        assert entry["isometry"]["is_isometry"]
        assert all(float(s) == 1.0 for s in entry["compactness"]["tail_sups"])
        assert entry["compactness"]["verdict"] == "not-compact-consistent"
    assert report["trend"]["verdict"] == "plateau"


def test_analyze_cli_is_byte_deterministic(tmp_path):
    path = write_spec(tmp_path, base_doc())
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["analyze", path, "--out", str(out1)]) == 0
    assert main(["analyze", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_spectrum_identity_seven_vertices(tmp_path):
    doc = base_doc(tree={"generator": "bary", "branching": 2},
                   weight={"family": "constant", "params": {"value": 1.0}},
                   map={"builtin": "identity"}, depth_ladder=[2])
    report, values = run_spectrum(read_analysis_spec(write_spec(tmp_path, doc)))
    csv_text = spectrum_csv(*values)
    entry = report["entries"][0]
    assert float(entry["hs_norm"]) == pytest.approx(math.sqrt(7), rel=1e-12)
    assert float(entry["trace_diagonal"]) == 7.0
    assert entry["fixed_point_count"] == 7
    assert entry["oracle"]["checked"]
    assert float(entry["oracle"]["max_abs_difference"]) <= 1e-8
    assert entry["oracle"]["fixed_point_count"] == 7
    for q, value in entry["schatten_sums"].items():
        assert float(entry["oracle"]["schatten_sums"][q]) == pytest.approx(
            float(value), rel=1e-9)
    lines = csv_text.splitlines()
    assert lines[0] == "rank,sigma_analytic,sigma_oracle"
    assert lines[1].startswith("1,1,")


def test_spectrum_geometric_path_closed_form(tmp_path):
    doc = base_doc(tree={"generator": "bary", "branching": 1},
                   weight={"family": "geometric", "params": {"ratio": 0.5}},
                   map={"builtin": "parent"}, depth_ladder=[6])
    report, _ = run_spectrum(read_analysis_spec(write_spec(tmp_path, doc)))
    assert float(report["entries"][0]["hs_norm"]) == 2.0


def test_spectrum_respects_oracle_cap(tmp_path):
    doc = base_doc(depth_ladder=[4, 9], oracle={"enabled": True, "max_vertices": 100})
    report, values = run_spectrum(read_analysis_spec(write_spec(tmp_path, doc)))
    csv_text = spectrum_csv(*values)
    first, second = report["entries"]
    assert first["oracle"]["checked"]
    assert not second["oracle"]["checked"]
    assert "exceed" in second["oracle"]["notice"]
    assert csv_text.splitlines()[0] == "rank,sigma_analytic"


def test_oracle_cap_is_refused_above_its_ceiling(tmp_path):
    ceiling = oracle_mod.MAX_ORACLE_VERTICES
    spec = parse_analysis_spec(base_doc(oracle={"max_vertices": ceiling}))
    assert spec.oracle_max_vertices == ceiling
    with pytest.raises(DocumentError, match=f"at most {ceiling}, got {ceiling + 1}"):
        parse_analysis_spec(base_doc(oracle={"max_vertices": ceiling + 1}))
    # exit 2 from the front door, before the 2^20-vertex tree would be built
    path = write_spec(tmp_path, base_doc(depth_ladder=[20], oracle={"max_vertices": 10 ** 6}))
    assert main(["spectrum", path]) == 2


def test_spectrum_rejects_non_hilbert_exponent(tmp_path):
    path = write_spec(tmp_path, base_doc(p=1.5))
    assert main(["spectrum", path]) == 2
    with pytest.raises(DocumentError, match="p = 2"):
        run_spectrum(read_analysis_spec(path))


def test_adversary_report(tmp_path):
    doc = base_doc(tree={"generator": "bary", "branching": 1},
                   weight={"family": "reciprocal_depth"},
                   map={"builtin": "identity"}, depth_ladder=[4, 16, 64])
    report = run_adversary(read_analysis_spec(write_spec(tmp_path, doc)))
    vanish = report["vanishing_weight"]
    assert vanish["verdict"] == "adversary found"
    sups = [float(e["ratio_sup"]) for e in vanish["entries"]]
    assert sups == [5.0, 17.0, 65.0]
    assert all(e["map"] is not None for e in vanish["entries"])

    flat = base_doc(weight={"family": "constant", "params": {"value": 1.0}},
                    tree={"generator": "bary", "branching": 1},
                    map={"builtin": "identity"}, depth_ladder=[4, 8])
    report = run_adversary(read_analysis_spec(write_spec(tmp_path, flat, "flat.json")))
    assert report["unbounded_weight"]["verdict"] == "no adversary found"
    assert report["vanishing_weight"]["verdict"] == "no adversary found"


def test_file_sources_with_ladder_truncation(tmp_path):
    tree = build_bary(2, 3)
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(dump_tree(tree)), encoding="utf-8")
    weight_path = tmp_path / "weight.json"
    weight_path.write_text(json.dumps(
        {"weights": {str(v): 1.0 for v in range(len(tree))}}), encoding="utf-8")
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(
        {"map": {str(v): str(v) for v in range(len(tree))}}), encoding="utf-8")
    doc = base_doc(tree={"file": "tree.json"}, weight={"file": "weight.json"},
                   map={"file": "map.json"}, depth_ladder=[1, 2, 3])
    report = run_analyze(read_analysis_spec(write_spec(tmp_path, doc)))
    assert [e["vertex_count"] for e in report["entries"]] == [3, 7, 15]
    assert all(e["isometry"]["is_isometry"] for e in report["entries"])

    too_deep = base_doc(tree={"file": "tree.json"}, weight={"file": "weight.json"},
                        map={"file": "map.json"}, depth_ladder=[5])
    with pytest.raises(DocumentError, match="exceeds"):
        run_analyze(read_analysis_spec(write_spec(tmp_path, too_deep, "deep.json")))


def test_map_not_closed_after_truncation(tmp_path):
    tree = build_bary(1, 3)
    (tmp_path / "tree.json").write_text(json.dumps(dump_tree(tree)), encoding="utf-8")
    # vertex 1 points at the deepest vertex, which truncation removes
    mapping = {"0": "0", "1": "3", "2": "1", "3": "2"}
    (tmp_path / "map.json").write_text(json.dumps({"map": mapping}), encoding="utf-8")
    # at [2] the whole ladder stops above vertex 3; at [2, 3] only the first
    # entry does, and the map is cut down to it
    for ladder in ([2], [2, 3]):
        doc = base_doc(tree={"file": "tree.json"},
                       weight={"family": "constant", "params": {"value": 1.0}},
                       map={"file": "map.json"}, depth_ladder=ladder)
        path = write_spec(tmp_path, doc)
        with pytest.raises(DocumentError, match="map sends vertex '1' to unknown vertex '3'"):
            run_analyze(read_analysis_spec(path))
        assert main(["analyze", path]) == 2


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2
    bad = write_spec(tmp_path, base_doc(depth_ladder=[9, 4]), "bad.json")
    assert main(["analyze", bad]) == 2

    import spectree.cli as cli_mod
    monkeypatch.setattr(cli_mod, "run_verify", lambda names, seed: {
        "schema_version": 1, "command": "verify", "seed": seed,
        "suites": [{"name": "norms", "cases": 1,
                    "violations": [{"suite": "norms", "case": 1, "description": "boom"}]}],
        "passed": False,
    })
    assert main(["verify"]) == 1
    assert capsys.readouterr().out.splitlines()[:3] == [
        "suite norms: 1 cases, 1 violations", "FAIL", "{"]

    monkeypatch.undo()
    assert main(["verify", "--suite", "norms"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:3] == ["suite norms: 64 cases, 0 violations", "PASS", "{"]
    assert json.loads(out.split("\n", 2)[2])["passed"] is True


_OUT_HELP = "--out OUT write the JSON report here instead of stdout"
_HELP = {  # each command's usage line, then every argument with its help string
    (): ("usage: spectree [-h] {analyze,spectrum,verify,adversary} ...",
         ["Composition-operator analysis on weighted L^p spaces of finite rooted-tree truncations",
          "-h, --help show this help message and exit",
          "analyze boundedness, isometry and compactness report",
          "spectrum singular values, Schatten sums, trace",
          "verify run the seeded property suites",
          "adversary construct weight-spread witness symbols"]),
    ("analyze",): ("usage: spectree analyze [-h] [--out OUT] spec",
                   ["spec path to the experiment JSON document", _OUT_HELP]),
    ("spectrum",): ("usage: spectree spectrum [-h] [--csv CSV] [--out OUT] spec",
                    ["spec path to the experiment JSON document (p must be 2)",
                     "--csv CSV write the deepest-entry spectrum as CSV", _OUT_HELP]),
    ("verify",): ("usage: spectree verify [-h] [--suite {adversary,compactness,isometry,lpspace,"
                  "norms,schatten}] [--seed SEED] [--out OUT]",
                  ["--suite {adversary,compactness,isometry,lpspace,norms,schatten} "
                   "restrict to one suite (repeatable) --seed SEED " + _OUT_HELP]),
    ("adversary",): ("usage: spectree adversary [-h] [--out OUT] spec",
                     ["spec path to the experiment JSON document", _OUT_HELP]),
}


@pytest.mark.parametrize("command", list(_HELP), ids=lambda c: " ".join(c) or "spectree")
def test_help_shows_the_usage_and_every_argument(capsys, command):
    usage, arguments = _HELP[command]
    with pytest.raises(SystemExit) as done:
        main([*command, "--help"])
    assert done.value.code == 0
    out = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal width
    assert out.startswith(usage + " ")
    for argument in arguments:
        assert argument in out


def test_usage_errors_exit_2_with_the_usage_line(capsys):
    for argv, prog, message in [
            ([], "spectree", "the following arguments are required: command"),
            (["bogus"], "spectree", "argument command: invalid choice: 'bogus'"),
            (["analyze"], "spectree analyze", "the following arguments are required: spec"),
            (["verify", "--suite", "nope"], "spectree verify", "argument --suite: invalid choice: 'nope'")]:
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: {prog} [-h]") and f"\n{prog}: error: {message}" in err


def test_spectrum_prints_its_summary_then_where_it_wrote(tmp_path, capsys):
    spec, csv, out = write_spec(tmp_path, base_doc()), tmp_path / "s.csv", tmp_path / "r.json"
    assert main(["spectrum", spec, "--csv", str(csv), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "depth 4: hs_norm=3.1091263510296, trace=3 (fixed points: 3), oracle ok",
        "depth 9: hs_norm=5.44671154612273, trace=3 (fixed points: 3), "
        "skipped: 1023 vertices exceed the dense-oracle cap 600",
        "Schatten sum trend (q=1): diverging",
        "Schatten sum trend (q=2): diverging",
        f"spectrum CSV written to {csv}",
        f"report written to {out}",
    ]
    assert json.loads(out.read_text(encoding="utf-8"))["command"] == "spectrum"
    assert csv.read_text(encoding="utf-8").startswith("rank,sigma_analytic\n")


def test_analyze_refuses_an_oversized_generated_tree(tmp_path, capsys):
    spec = write_spec(tmp_path, base_doc(depth_ladder=[100000]))
    assert main(["analyze", spec]) == 2
    assert "refusing to materialize more than 5000000 vertices" in capsys.readouterr().err


def test_analyze_refuses_an_overflowing_geometric_weight(tmp_path, capsys):
    spec = write_spec(tmp_path, base_doc(tree={"generator": "bary", "branching": 1},
                                         weight={"family": "geometric", "params": {"ratio": 2}},
                                         depth_ladder=[1100]))
    assert main(["analyze", spec]) == 2
    assert "vertex '1024' must be a finite positive real, got inf" in capsys.readouterr().err


def test_verify_cli_runs_single_suite(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", "adversary", "--seed", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [s["name"] for s in report["suites"]] == ["adversary"]
    assert report["passed"]


def write_doc(tmp_path, name, doc):
    (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")


def shuffled_tree_files(tmp_path, depth=4):
    """A binary tree document with shuffled ids and shuffled document order,
    a random weight table and a random explicit map sending each vertex to a
    vertex no deeper than itself, so the map stays closed under truncation.
    Tables cover the whole tree."""
    rng = np.random.default_rng(5)
    tree = build_bary(2, depth)
    n = len(tree)
    names = [f"x{t}" for t in rng.permutation(n)]
    order = rng.permutation(n)
    write_doc(tmp_path, "tree.json", {"vertices": [
        {"id": names[v], "parent": names[tree.parent[v]] if v else None} for v in order]})
    write_doc(tmp_path, "weight.json", {"weights": {
        names[v]: float(w) for v, w in zip(order, 10.0 ** rng.uniform(-2, 2, n)[order])}})
    targets = [int(rng.choice(np.flatnonzero(tree.depth <= tree.depth[v]))) for v in range(n)]
    write_doc(tmp_path, "map.json", {"map": {names[v]: names[targets[v]] for v in order}})
    return base_doc(tree={"file": "tree.json"}, weight={"file": "weight.json"},
                    map={"file": "map.json"}, depth_ladder=[1, 3])


def assert_ladder_is_per_depth(tmp_path, doc, ladder):
    """A multi-depth ladder gives, entry for entry, what one run per depth
    gives, for analyze, spectrum and adversary."""
    def run_all(depths, name):
        spec = read_analysis_spec(write_spec(tmp_path, doc | {"depth_ladder": depths}, name))
        analyzed, (spectrum, values), adversaries = (
            run_analyze(spec), run_spectrum(spec), run_adversary(spec))
        for report in (analyzed, spectrum, adversaries):
            assert report_json(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"
        return analyzed, spectrum, values, adversaries

    analyzed, spectra, values, adversaries = run_all(ladder, "ladder.json")
    for i, depth in enumerate(ladder):
        one = run_all([depth], f"depth{depth}.json")
        assert analyzed["entries"][i] == one[0]["entries"][0]
        assert spectra["entries"][i] == one[1]["entries"][0]
        for key in ("unbounded_weight", "vanishing_weight"):
            assert adversaries[key]["entries"][i] == one[3][key]["entries"][0]
    assert spectrum_csv(*values) == spectrum_csv(*one[2])


def test_file_ladder_matches_one_run_per_depth(tmp_path):
    assert_ladder_is_per_depth(tmp_path, shuffled_tree_files(tmp_path), [0, 1, 2, 4])


def test_file_ladder_below_the_tree_drops_deeper_table_rows(tmp_path):
    # the tables name the depth-4 vertices, which no entry keeps
    assert_ladder_is_per_depth(tmp_path, shuffled_tree_files(tmp_path), [1, 3])


def test_generated_ladder_matches_one_run_per_depth(tmp_path):
    doc = base_doc(tree={"generator": "bary", "branching": 2, "branch_until": 2})
    assert_ladder_is_per_depth(tmp_path, doc, [1, 4, 6])
    geometric = base_doc(weight={"family": "geometric", "params": {"ratio": 0.5}},
                         map={"builtin": "level_shift", "params": {"k": 2}})
    assert_ladder_is_per_depth(tmp_path, geometric, [0, 2, 3])


def test_map_tables_are_written_in_name_order(tmp_path):
    shuffled_tree_files(tmp_path)
    tree = load_tree(json.loads((tmp_path / "tree.json").read_text()))
    weight = load_weight(tree, json.loads((tmp_path / "weight.json").read_text()))
    custom = load_map(tree, json.loads((tmp_path / "map.json").read_text()))
    for symbol in (adversary_unbounded(tree, weight), custom):
        table = dump_map(symbol)["map"]
        assert list(table) == sorted(tree.vertex_names()) != list(tree.vertex_names())
        assert list(table).index("x10") < list(table).index("x9")
        assert np.array_equal(load_map(tree, dump_map(symbol)).image, symbol.image)


_KEYS = st.text() | st.sampled_from(["", "\"", "\\", "\n\t\x00\x1f", "\u00e9", "\U0001f333", "\ud800"])
_SCALARS = (st.none() | st.booleans() | st.integers() | st.text() | st.floats()
            | st.sampled_from([-0.0, 1e300, math.nan, math.inf, -math.inf]))
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=40)


@given(_JSON_VALUES)
def test_report_writer_matches_indented_json_dumps(value):
    assert report_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_tables_naming_unknown_vertices_are_rejected(tmp_path, capsys):
    doc = shuffled_tree_files(tmp_path)
    weights = json.loads((tmp_path / "weight.json").read_text())
    weights["weights"]["bogus"] = 1.0
    write_doc(tmp_path, "bad_weight.json", weights)
    mapping = json.loads((tmp_path / "map.json").read_text())
    mapping["map"]["bogus"] = next(iter(mapping["map"]))
    write_doc(tmp_path, "bad_map.json", mapping)
    generated = {str(v): 1.0 for v in range(7)}
    cases = [
        (doc | {"weight": {"file": "bad_weight.json"}}, "weight document names unknown vertex 'bogus'"),
        (doc | {"map": {"file": "bad_map.json"}}, "map document names unknown vertex 'bogus'"),
        # vertex 7 is in no tree of the ladder's deepest depth, 2
        (base_doc(weight={"weights": generated | {"7": 1.0}}, depth_ladder=[1, 2]),
         "weight document names unknown vertex '7'"),
        (base_doc(map={"map": {v: "0" for v in generated} | {"7": "0"}}, depth_ladder=[1, 2]),
         "map document names unknown vertex '7'"),
    ]
    for i, (bad, message) in enumerate(cases):
        path = write_spec(tmp_path, bad, f"bad{i}.json")
        with pytest.raises(DocumentError, match=message):
            run_analyze(read_analysis_spec(path))
        assert main(["analyze", path]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ('{"p": NaN}', "NaN is not a JSON number"),
    ('{"p": 2, "seed": -Infinity}', "-Infinity is not a JSON number"),
    ('{"p": 2, "depth_ladder": [1], "p": 3}', "duplicate key 'p'"),
    ('{"a": 1, "b": 2, "b": 3, "a": 4}', "duplicate key 'a'"),  # the first key that repeats
])
def test_json_documents_are_parsed_strictly(tmp_path, text, message):
    (tmp_path / "spec.json").write_text(text, encoding="utf-8")
    with pytest.raises(DocumentError, match=message):
        read_analysis_spec(tmp_path / "spec.json")
    # a referenced document goes through the same reader
    (tmp_path / "weight.json").write_text('{"family": "constant", "params": '
                                         + text + "}", encoding="utf-8")
    path = write_spec(tmp_path, base_doc(weight={"file": "weight.json"}), "uses_weight.json")
    assert main(["analyze", path]) == 2
    with pytest.raises(DocumentError, match=message):
        run_analyze(read_analysis_spec(path))


def test_duplicate_keys_are_found_in_linear_time(tmp_path):
    keys = [f"v{i}" for i in range(200_000)]
    text = json.dumps({"weights": dict.fromkeys(keys, 1.0)})
    (tmp_path / "weight.json").write_text(text[:-2] + f', "{keys[-1]}": 2.0}}}}', encoding="utf-8")
    started = time.perf_counter()
    with pytest.raises(DocumentError, match=f"duplicate key '{keys[-1]}'"):
        analysis.read_json(tmp_path / "weight.json")
    assert time.perf_counter() - started < 1.0  # a count per key took 27 s at 40,000 keys


@pytest.mark.parametrize("tolerances", [
    {"isometry_ratio": True},
    {"compactness_decay_ratio": math.inf},
    {"isometry_ratio": math.nan},
    {"compactness_decay_ratio": 0},
])
def test_tolerances_must_be_finite_positive_numbers(tolerances):
    with pytest.raises(DocumentError, match="must be finite positive numbers"):
        parse_analysis_spec(base_doc(tolerances=tolerances))


def test_tied_ratio_witness_is_the_first_vertex_in_level_order(tmp_path):
    # weight 2**depth and the parent map tie every non-root ratio at 2; the
    # witness is the first of them in level order, the root's first child in
    # document order (document order alone would give the first non-root entry)
    doc = shuffled_tree_files(tmp_path) | {
        "weight": {"family": "geometric", "params": {"ratio": 2}},
        "map": {"builtin": "parent"}, "depth_ladder": [4]}
    entry = run_analyze(read_analysis_spec(write_spec(tmp_path, doc)))["entries"][0]
    vertices = json.loads((tmp_path / "tree.json").read_text())["vertices"]
    root = next(v["id"] for v in vertices if v["parent"] is None)
    first_child = next(v["id"] for v in vertices if v["parent"] == root)
    assert entry["boundedness"]["ratio_sup"] == "2"
    assert entry["boundedness"]["ratio_sup_witness"] == first_child == "x9"


BIG = 10 ** 400  # an exact JSON integer beyond the floating-point range


@pytest.mark.parametrize("overrides", [
    {"p": BIG},
    {"schatten_exponents": [1, BIG]},
    {"schatten_exponents": ["1e400"]},
    {"schatten_exponents": [1, 2, 4, 2.0]},
    {"tolerances": {"isometry_ratio": BIG}},
    {"weight": {"family": "constant", "params": {"value": BIG}}},
    {"weight": {"family": "geometric", "params": {"ratio": BIG}}},
    {"weight": {"weights": {"0": 1.0, "1": BIG, "2": 1.0}}},
    {"weight": {"family": "constant", "params": {"value": [1]}}},
    {"map": {"builtin": "level_shift", "params": {"k": "1e400"}}},
    {"map": {"builtin": "level_shift", "params": {"k": [1]}}},
    {"map": {"builtin": "level_shift", "params": {"k": 1.5}}},
    {"map": {"builtin": "level_shift", "params": {"k": True}}},
    {"tree": {"generator": "bary", "branching": 2, "branch_until": True}},
], ids=["p", "schatten_exponent", "schatten_exponent_overflowing_float",
        "schatten_exponent_repeated", "tolerance", "constant_value", "geometric_ratio",
        "weights_entry", "constant_value_list", "k_overflowing_float", "k_list", "k_fraction",
        "k_boolean", "branch_until_boolean"])
def test_numeric_fields_are_read_as_documents(tmp_path, capsys, overrides):
    # numbers beyond the float range, non-numbers, booleans or fractions in
    # integer fields and a repeated exponent are input errors (exit 2), not
    # crashes (exit 1)
    assert main(["spectrum", write_spec(tmp_path, base_doc(depth_ladder=[1]), "ok.json")]) == 0
    capsys.readouterr()
    text = json.dumps(base_doc(depth_ladder=[1]) | overrides).replace('"1e400"', "1e400")
    path = tmp_path / "spec.json"
    path.write_text(text, encoding="utf-8")
    assert main(["spectrum", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(DocumentError):
        run_spectrum(read_analysis_spec(path))


def test_repeated_schatten_exponents_are_found_in_linear_time():
    started = time.perf_counter()
    spec = parse_analysis_spec(base_doc(schatten_exponents=[1 + i / 64 for i in range(40_000)]))
    assert time.perf_counter() - started < 1.0  # the quadratic scan took about 15 s
    assert len(spec.schatten_exponents) == 40_000
    with pytest.raises(DocumentError) as refused:  # 1 and 1.0 are one exponent
        parse_analysis_spec(base_doc(schatten_exponents=[1, 2, 1.0]))
    assert str(refused.value) == "analysis spec: Schatten exponent 1 is repeated"


@pytest.mark.parametrize("overrides, key", [
    ({"tolerance": {"isometry_ratio": 0.05}}, "tolerance"),
    ({"oracle": {"max_vertex": 3}}, "max_vertex"),
    ({"tolerances": {"isometry": 0.05}}, "isometry"),
    ({"tree": {"generator": "bary", "branching": 2, "branchuntil": 3}}, "branchuntil"),
    ({"tree": {"file": "tree.json", "branching": 2}}, "branching"),
    ({"weight": {"file": "weight.json", "family": "constant", "params": {"value": 3}}}, "family"),
    ({"map": {"file": "map.json", "builtin": "parent"}}, "builtin"),
    ({"tree": {"file": "colour_tree.json"}}, "colour"),
], ids=["spec", "oracle", "tolerances", "generated_tree", "file_tree", "file_weight", "file_map",
        "tree_vertex"])
def test_unknown_spec_keys_are_refused(tmp_path, capsys, overrides, key):
    # a "file" source holds nothing else: its inline keys would be echoed, not read
    tree = build_bary(2, 2)
    colour_tree = dump_tree(tree)
    colour_tree["vertices"][1]["colour"] = "red"
    for name, doc in [("tree.json", dump_tree(tree)), ("weight.json", {"family": "reciprocal_depth"}),
                      ("map.json", {"builtin": "parent"}), ("colour_tree.json", colour_tree)]:
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    assert main(["analyze", write_spec(tmp_path, base_doc(depth_ladder=[1, 2]))]) == 0
    capsys.readouterr()
    assert main(["analyze", write_spec(tmp_path, base_doc(depth_ladder=[1, 2]) | overrides)]) == 2
    assert f"unknown key '{key}'" in capsys.readouterr().err


BENCH_DOCS = Path(__file__).resolve().parents[1] / "perfbench" / "docs"


@pytest.mark.parametrize("name, run, entries", [
    ("analyze_ladder", run_analyze, 3),
    ("spectrum_ladder", lambda spec: run_spectrum(spec)[0], 4),
])
def test_preimage_weight_is_formed_once_per_ladder_entry(monkeypatch, tmp_path, name, run, entries):
    # a weight read from a file keeps analyze on the vertex path
    doc = json.loads((BENCH_DOCS / f"{name}.json").read_text(encoding="utf-8"))
    (tmp_path / "weight.json").write_text(json.dumps(doc["weight"]), encoding="utf-8")
    doc["weight"] = {"file": "weight.json"}
    calls = []
    original = compop.preimage_weight

    def counted(spec):
        calls.append(len(spec.tree))
        return original(spec)

    monkeypatch.setattr(compop, "preimage_weight", counted)
    run(parse_analysis_spec(doc, tmp_path))
    assert len(calls) == entries


def test_level_class_path_forms_no_tree_weight_or_map(monkeypatch):
    def refused(*args):
        raise AssertionError("a per-vertex structure was formed")

    for module, name in [(analysis, "build_bary"), (analysis, "load_weight"),
                         (analysis, "load_map"), (compop, "preimage_weight"), (compop, "analyze")]:
        monkeypatch.setattr(module, name, refused)
    report = run_analyze(read_analysis_spec(BENCH_DOCS / "analyze_ladder.json"))
    assert [e["vertex_count"] for e in report["entries"]] == [1023, 131071, 720895]


_SEVEN = range(7)  # build_bary(2, 2)


@pytest.mark.parametrize("reason, symbol", [
    ("ratio_deviation", {"map": {str(v): str({1: 2, 2: 1}.get(v, v)) for v in _SEVEN}}),
    ("not_injective", {"map": {str(v): str(t) for v, t in zip(_SEVEN, [0, 3, 3, 1, 2, 4, 5])}}),
    ("not_surjective", {"builtin": "depth_square"}),
])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_reported_isometry_witness_has_the_reported_image_norm(tmp_path, reason, symbol, p):
    weights = {str(v): 1.0 + v for v in _SEVEN}
    doc = base_doc(weight={"weights": weights}, map=symbol, p=p, depth_ladder=[2])
    iso = run_analyze(read_analysis_spec(write_spec(tmp_path, doc)))["entries"][0]["isometry"]
    assert iso["reason"] == reason
    tree = build_bary(2, 2)
    weight = load_weight(tree, {"weights": weights})
    op = compop.OperatorSpec(tree, weight, load_map(tree, symbol), p)
    image = compop.apply(op, basis_vector(weight, int(iso["witness_vertex"]), p))
    assert real_str(norm_p(image, weight, p)) == iso["witness_image_norm"]


def test_deeply_nested_documents_are_document_errors(tmp_path, capsys):
    deep = "[" * 100_000 + "]" * 100_000  # beyond the JSON reader's recursion
    (tmp_path / "deep.json").write_text(deep, encoding="utf-8")
    (tmp_path / "tree.json").write_text(deep, encoding="utf-8")
    # parses, but the report echoing the tree source would recurse 450 levels
    nested = json.dumps(base_doc(tree={"generator": "bary", "branching": 2, "note": 0}))
    (tmp_path / "nested.json").write_text(
        nested.replace('"note": 0', '"note": ' + "[" * 450 + "]" * 450), encoding="utf-8")
    cases = [
        (tmp_path / "deep.json", "deep.json' is not valid JSON: nested too deeply"),
        (write_spec(tmp_path, base_doc(tree={"file": "tree.json"}), "uses_tree.json"),
         "tree.json' is not valid JSON: nested too deeply"),
        (tmp_path / "nested.json", "analysis spec nests deeper than 8 levels"),
    ]
    for path, message in cases:
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


def test_tables_are_resolved_on_the_whole_file_tree(tmp_path, capsys):
    # the ladder [1, 3] stops above the depth-4 vertices of the file tree; their
    # table rows are read and validated like any other row
    doc = shuffled_tree_files(tmp_path)
    below = load_tree(json.loads((tmp_path / "tree.json").read_text())).names[-1]
    weights = json.loads((tmp_path / "weight.json").read_text())
    write_doc(tmp_path, "negative.json", {"weights": weights["weights"] | {below: -1.0}})
    del weights["weights"][below]
    write_doc(tmp_path, "short.json", weights)
    mapping = json.loads((tmp_path / "map.json").read_text())
    write_doc(tmp_path, "bogus.json", {"map": mapping["map"] | {below: "bogus"}})
    cases = [
        ({"weight": {"file": "negative.json"}},
         f"weight at vertex '{below}' must be a finite positive real, got -1.0"),
        ({"weight": {"file": "short.json"}}, f"weight document is missing vertex '{below}'"),
        ({"map": {"file": "bogus.json"}}, f"map sends vertex '{below}' to unknown vertex 'bogus'"),
    ]
    for i, (source, message) in enumerate(cases):
        path = write_spec(tmp_path, doc | source, f"bad{i}.json")
        for command in ("analyze", "adversary"):
            assert main([command, path]) == 2
            assert message in capsys.readouterr().err

    # a map target below the deepest entry fails only the commands that use the map
    tree = build_bary(1, 3)
    write_doc(tmp_path, "path.json", dump_tree(tree))
    write_doc(tmp_path, "deep_target.json", {"map": {"0": "0", "1": "3", "2": "1", "3": "2"}})
    path = write_spec(tmp_path, base_doc(tree={"file": "path.json"}, map={"file": "deep_target.json"},
                                         depth_ladder=[2]), "deep_target_spec.json")
    assert main(["adversary", path]) == 0
    assert main(["analyze", path]) == 2


@st.composite
def builtin_ladders(draw):
    branching, depth = draw(st.integers(1, 3)), draw(st.integers(0, 12))
    until = draw(st.none() | st.integers(0, depth))
    top = depth if until is None else until
    if branching ** top > 3 ** 7:  # keep the tree below a few thousand vertices
        until = 7
    doc = draw(st.sampled_from([{"builtin": "identity"}, {"builtin": "parent"},
                                {"builtin": "depth_square"}])
               | st.builds(lambda k: {"builtin": "level_shift", "params": {"k": k}},
                           st.integers(0, depth + 2)))
    return build_bary(branching, depth, until), doc


@given(builtin_ladders())
def test_builtins_restricted_to_an_entry_are_the_builtins_of_the_entry(case):
    # one symbol resolved on the whole tree serves every ladder entry
    tree, doc = case
    symbol = load_map(tree, doc)
    for d in range(tree.truncation_depth + 1):
        entry = truncate(tree, d)
        restricted, direct = _restrict(symbol, entry), load_map(entry, doc)
        assert restricted.tree is entry
        assert np.array_equal(restricted.image, direct.image)
        assert (restricted.label, restricted.params) == (direct.label, direct.params)
    assert _restrict(symbol, tree) is symbol


_PARENT = {"builtin": "parent"}


@pytest.mark.parametrize("overrides, message", [
    ({"map": {"builtin": "no_such_map"}}, "unknown builtin map 'no_such_map'"),
    ({"map": {"builtin": "level_shift", "params": {"k": "x"}}}, "level_shift params.k"),
    ({"map": _PARENT | {"params": 0}}, 'map document field "params" must be an object'),
    ({"map": _PARENT | {"params": []}}, 'map document field "params" must be an object'),
    ({"map": _PARENT | {"params": ""}}, 'map document field "params" must be an object'),
    ({"weight": {"family": "reciprocal_depth", "params": False}},
     'weight document field "params" must be an object'),
    ({"weight": {"family": "reciprocal_depth", "params": []}},
     'weight document field "params" must be an object'),
], ids=["unknown_builtin", "k_string", "params_zero", "params_list", "params_empty_string",
        "weight_params_false", "weight_params_list"])
def test_every_command_refuses_a_bad_builtin_document(tmp_path, capsys, overrides, message):
    path = write_spec(tmp_path, base_doc(depth_ladder=[1, 2]) | overrides)
    errors = []
    for command in ("analyze", "spectrum", "adversary"):
        assert main([command, path]) == 2
        errors.append(capsys.readouterr().err)
    assert message in errors[0] and errors.count(errors[0]) == 3


def test_null_params_mean_no_params(tmp_path):
    doc = base_doc(map=_PARENT | {"params": None},
                   weight={"family": "reciprocal_depth", "params": None}, depth_ladder=[1, 2])
    path = write_spec(tmp_path, doc)
    for command in ("analyze", "spectrum", "adversary"):
        assert main([command, path]) == 0


_SEVEN_NAMES = [str(v) for v in range(7)]  # build_bary(2, 2)


@pytest.mark.parametrize("field, doc, message", [
    ("weight", {"family": "reciprocal_depth", "params": {"ratio": 2}},
     "reciprocal_depth weight params has unknown key 'ratio'; allowed keys: none"),
    ("map", {"builtin": "parent", "params": {"k": 3}},
     "parent params has unknown key 'k'; allowed keys: none"),
    ("map", {"builtin": "level_shift", "params": {"k": 1, "kk": 2}},
     "level_shift params has unknown key 'kk'; allowed keys: k"),
    ("map", {"builtin": "identity", "map": {v: v for v in _SEVEN_NAMES}},
     "map document has unknown key 'map'; allowed keys: builtin, params"),
    ("weight", {"family": "constant", "params": {"value": 1}, "weights": dict.fromkeys(_SEVEN_NAMES, 1.0)},
     "weight document has unknown key 'weights'; allowed keys: family, params"),
    ("weight", {"weights": dict.fromkeys(_SEVEN_NAMES, 1.0), "params": {}},
     "weight document has unknown key 'params'; allowed keys: weights"),
], ids=["family_params", "parent_params", "level_shift_params", "builtin_and_table",
        "family_and_table", "table_and_params"])
def test_unknown_and_mixed_document_keys_are_refused(tmp_path, capsys, field, doc, message):
    # inline, and read from a file, which keeps analyze on the vertex path
    write_doc(tmp_path, "doc.json", doc)
    for source in (doc, {"file": "doc.json"}):
        path = write_spec(tmp_path, base_doc(depth_ladder=[1, 2]) | {field: source})
        assert main(["analyze", path]) == 2
        assert message in capsys.readouterr().err


def test_depth_square_is_checked_on_the_whole_file_tree(tmp_path, capsys):
    # r-a-{b, c}-d-e: level 4 holds one vertex, level 2 two. The ladder [1, 3]
    # never reads level 4, but the map is resolved on the tree as loaded
    write_doc(tmp_path, "gapped.json", {"vertices": [
        {"id": "r", "parent": None}, {"id": "a", "parent": "r"}, {"id": "b", "parent": "a"},
        {"id": "c", "parent": "a"}, {"id": "d", "parent": "b"}, {"id": "e", "parent": "d"}]})
    path = write_spec(tmp_path, base_doc(tree={"file": "gapped.json"}, depth_ladder=[1, 3]))
    for command in ("analyze", "spectrum", "adversary"):
        assert main([command, path]) == 2
        assert "level 4 has 1 vertices but level 2 has 2" in capsys.readouterr().err


def count_adversary_sorts(monkeypatch):
    """Record the size of each weight argsort, name sort and name column
    formed from here on; _assemble's sort of the parent ids is not counted."""
    counts: dict[str, list] = {"weight": [], "name": [], "column": []}
    argsort, name_order, columns = np.argsort, Tree.name_order, analysis._name_columns

    def counted_argsort(a, *args, **kwargs):
        if np.asarray(a).dtype.kind == "f":
            counts["weight"].append(len(a))
        return argsort(a, *args, **kwargs)

    def counted_name_order(tree):
        counts["name"].append(len(tree))
        return name_order.func(tree)

    def counted_columns(tree):
        counts["column"].append(len(tree))
        return columns(tree)

    counted = cached_property(counted_name_order)
    counted.__set_name__(Tree, "name_order")
    monkeypatch.setattr(np, "argsort", counted_argsort)
    monkeypatch.setattr(Tree, "name_order", counted)
    monkeypatch.setattr(analysis, "_name_columns", counted_columns)
    return counts


# the file tree has depth 4 (31 vertices); a ladder ending at depth 2 sorts 7.
# Depth 0 finds no witness, and the names wait for the first one
@pytest.mark.parametrize("ladder, deepest", [([0, 3, 4], 31), ([0, 1, 2], 7)])
def test_adversary_sorts_the_weight_and_the_names_once_per_ladder(monkeypatch, tmp_path,
                                                                  ladder, deepest):
    spec = read_analysis_spec(write_spec(tmp_path, shuffled_tree_files(tmp_path)
                                         | {"depth_ladder": ladder}))
    counts = count_adversary_sorts(monkeypatch)
    report = run_adversary(spec)
    assert [e["found"] for e in report["unbounded_weight"]["entries"]] == [False, True, True]
    assert counts == {"weight": [deepest] * 2, "name": [deepest], "column": [deepest]}


def test_adversary_forms_no_name_column_without_a_witness(monkeypatch, tmp_path):
    doc = shuffled_tree_files(tmp_path) | {"depth_ladder": [1, 3, 4],
                                           "weight": {"family": "constant", "params": {"value": 2.0}}}
    spec = read_analysis_spec(write_spec(tmp_path, doc))
    counts = count_adversary_sorts(monkeypatch)
    report = run_adversary(spec)
    assert not any(e["found"] for key in ("unbounded_weight", "vanishing_weight")
                   for e in report[key]["entries"])
    assert counts == {"weight": [31] * 2, "name": [], "column": []}


def test_map_tables_are_read_only():
    # the writer renders a table from its index arrays, so its rows may not change
    table = dump_map(SelfMap(build_bary(2, 2), np.array([0, 2, 1, 3, 4, 5, 6]), label="custom"))["map"]
    assert type(table) is _MapTable and table["1"] == "2"
    for edit in (lambda t: t.__setitem__("1", "1"), lambda t: t.__delitem__("1"), lambda t: t.clear(),
                 lambda t: t.pop("1"), lambda t: t.popitem(), lambda t: t.setdefault("7", "7"),
                 lambda t: t.update({"1": "1"}), lambda t: t.__ior__({"1": "1"})):
        with pytest.raises(TypeError, match="read-only"):
            edit(table)
    assert report_json(table) == json.dumps(table, indent=2, sort_keys=True) + "\n"
    for copied in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert type(copied) is dict and copied == table


# names that json escapes, that are not ASCII or not valid UTF-8, and whose
# code point order is not their id order
_AWKWARD_NAMES = st.text(st.sampled_from(['"', "\\", "\x00", "\n", "é", "\U0001f333",
                                          "\ud800", "a", "B", "1"]), max_size=3)


@settings(deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_adversary_report_matches_indented_json_dumps(branching, depth, data):
    tree = build_bary(branching, depth)
    n = len(tree)
    names = data.draw(st.lists(_AWKWARD_NAMES, min_size=n, max_size=n, unique=True))
    weights = data.draw(st.lists(st.sampled_from([1e-3, 0.5, 1.0, 3.0]), min_size=n, max_size=n))
    weights[0], weights[-1] = 1e3, 1e-3  # both adversaries are found at every depth
    doc = base_doc(tree={"file": "tree.json"}, map={"builtin": "identity"},
                   weight={"weights": dict(zip(names, weights))},
                   depth_ladder=list(range(1, depth + 1)))
    with tempfile.TemporaryDirectory() as tmp:
        write_doc(Path(tmp), "tree.json", {"vertices": [
            {"id": names[v], "parent": names[p] if p >= 0 else None}
            for v, p in enumerate(tree.parent.tolist())]})
        report = run_adversary(read_analysis_spec(write_spec(Path(tmp), doc)))
    tables = [e["map"]["map"] for key in ("unbounded_weight", "vanishing_weight")
              for e in report[key]["entries"]]
    assert len(tables) == 2 * depth and all(type(t) is _MapTable for t in tables)
    assert report_json(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"
