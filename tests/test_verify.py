import json

import numpy as np
import pytest

from spectree import (OperatorSpec, build_bary, constant_weight, custom_weight,
                      isometry_check, load_map, load_tree, load_weight)
from spectree.analysis import report_json, serialize_instance
from spectree.instances import random_permutation_map
from spectree.verify import SUITES, run_verify


def test_all_suites_pass_on_default_seed():
    report = run_verify(seed=0)
    assert report["passed"]
    assert [s["name"] for s in report["suites"]] == sorted(SUITES)
    assert all(s["cases"] > 0 for s in report["suites"])
    assert report_json(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_runs_are_deterministic_per_seed():
    assert run_verify(seed=5) == run_verify(seed=5)


def test_suite_selection_and_unknown_suite():
    report = run_verify(["isometry", "adversary"], seed=1)
    assert [s["name"] for s in report["suites"]] == ["adversary", "isometry"]
    with pytest.raises(ValueError, match="unknown suite"):
        run_verify(["spectral"], seed=0)


def test_isometry_checker_flags_injected_ratio_perturbation():
    # the constructed violation the verify machinery must catch: one weight
    # value nudged off a constant weight under a bijection
    tree = build_bary(2, 3)
    rng = np.random.default_rng(9)
    symbol = random_permutation_map(rng, tree)
    values = np.full(len(tree), 1.0)
    moved = int(np.flatnonzero(symbol.image != np.arange(len(tree)))[0])
    values[moved] = 1.01
    spec = OperatorSpec(tree, custom_weight(tree, values), symbol, 2.0)
    verdict = isometry_check(spec)
    assert not verdict.is_isometry
    witness = verdict.ratio_vertex
    assert witness is not None
    ratio = values[witness] / values[int(symbol.image[witness])]
    assert abs(ratio - 1.0) > 1e-12


def test_violation_instances_round_trip():
    tree = build_bary(2, 2)
    spec = OperatorSpec(tree, constant_weight(tree, 2.0),
                        random_permutation_map(np.random.default_rng(0), tree), 1.5)
    doc = serialize_instance(spec)
    t2 = load_tree(doc["tree"])
    w2 = load_weight(t2, doc["weight"])
    m2 = load_map(t2, doc["map"])
    assert np.array_equal(t2.parent, tree.parent)
    assert np.array_equal(w2.values, spec.weight.values)
    assert np.array_equal(m2.image, spec.symbol.image)
    assert float(doc["p"]) == 1.5
