"""The level-class path of ``analyze`` against the vertex path.

A spec with a generated tree, a family weight and a builtin map is analyzed
by level classes. Forcing the vertex path on the same spec must give the
same report text byte for byte, and the same refusal."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectree import analysis, compop
from spectree.analysis import parse_analysis_spec, report_json, run_analyze
from spectree.cli import main

P_GRID = (1, 1.5, 2, 3)
WEIGHTS = [
    {"family": "constant", "params": {"value": 2.5}},
    {"family": "reciprocal_depth"},
    {"family": "geometric", "params": {"ratio": 0.5}},
]


def map_docs(depth):
    shifts = sorted({0, 1, 2, depth, depth + 5})
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


def assert_paths_agree(doc):
    assert analysis._by_level_classes(parse_analysis_spec(doc))
    by_classes = outcome(doc)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_by_level_classes", lambda spec: False)
        by_vertex = outcome(doc)
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
        assert compop._sequential_sum(values, reps) == want
    assert compop._sequential_sum(values, reps) == want
