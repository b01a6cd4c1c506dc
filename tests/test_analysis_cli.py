import json
import math
from fractions import Fraction

import pytest

from spectree import DocumentError, build_bary, dump_tree
from spectree.analysis import (parse_analysis_spec, read_analysis_spec,
                               run_adversary, run_analyze, run_spectrum)
from spectree.cli import main


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
    report, csv_text = run_spectrum(read_analysis_spec(write_spec(tmp_path, doc)))
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
    report, csv_text = run_spectrum(read_analysis_spec(write_spec(tmp_path, doc)))
    first, second = report["entries"]
    assert first["oracle"]["checked"]
    assert not second["oracle"]["checked"]
    assert "exceed" in second["oracle"]["notice"]
    assert csv_text.splitlines()[0] == "rank,sigma_analytic"


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
    doc = base_doc(tree={"file": "tree.json"},
                   weight={"family": "constant", "params": {"value": 1.0}},
                   map={"file": "map.json"}, depth_ladder=[2])
    path = write_spec(tmp_path, doc)
    with pytest.raises(DocumentError, match="unknown vertex"):
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
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_analyze_refuses_an_oversized_generated_tree(tmp_path, capsys):
    spec = write_spec(tmp_path, base_doc(depth_ladder=[100000]))
    assert main(["analyze", spec]) == 2
    assert "refusing to materialize more than 5000000 vertices" in capsys.readouterr().err


def test_verify_cli_runs_single_suite(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", "adversary", "--seed", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [s["name"] for s in report["suites"]] == ["adversary"]
    assert report["passed"]
