import json
import sys
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
import test_instances
import test_oracle
from test_instances import reference_unit_function as random_unit_function
from test_oracle import reference_norm_search

from spectree import (OperatorSpec, apply, basis_vector, build_bary, constant_weight,
                      custom_weight, isometry_check, load_map, load_tree, load_weight,
                      norm_p, operator_norm, point_eval_norm, project, ratio_sup)
from spectree import instances, lpspace, verify
from spectree import oracle as oracle_mod
from spectree.analysis import report_json, serialize_instance
from spectree.instances import (_P_CHOICES, random_bary_tree, random_function,
                                random_injective_spec, random_multiplicity_spec,
                                random_nonidentity_permutation_map, random_permutation_map,
                                random_weight)
from spectree.verify import SUITES, _Recorder, run_verify
from spectree.weight import bounds

# the reference suites below reach the oracle under this name
oracle = SimpleNamespace(matrix_of=oracle_mod.matrix_of, svd_values=oracle_mod.svd_values,
                         norm_search=reference_norm_search)


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
    (witness,) = np.flatnonzero(symbol.image == verdict.witness_vertex)
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


# The three suites as they were, one vector per norm_p call. The rng draws,
# the checks and their order are what the batched suites must reproduce.

def reference_suite_lpspace(seed: int) -> dict:
    rec = _Recorder("lpspace")
    rng = np.random.default_rng([seed, 101])
    for _ in range(6):
        tree = random_bary_tree(rng, max_vertices=200)
        weight = random_weight(rng, tree)
        for p in _P_CHOICES:
            for v in rng.integers(0, len(tree), size=6):
                f = basis_vector(weight, int(v), p)
                rec.check(abs(norm_p(f, weight, p) - 1.0) <= 1e-12,
                          f"normalized indicator of vertex {v} has p-norm != 1 (p={p})")
        for _ in range(8):
            p = _P_CHOICES[int(rng.integers(len(_P_CHOICES)))]
            f = random_function(rng, tree)
            g = random_function(rng, tree)
            nf, ng = norm_p(f, weight, p), norm_p(g, weight, p)
            rec.check(norm_p(f + g, weight, p) <= nf + ng + 1e-10,
                      f"triangle inequality failed (p={p})")
            c = float(rng.uniform(0.1, 5.0))
            rec.check(abs(norm_p(c * f, weight, p) - c * nf) <= 1e-10 * max(1.0, c * nf),
                      f"absolute homogeneity failed (p={p})")
            v = int(rng.integers(len(tree)))
            bound = point_eval_norm(weight, v, p) * nf
            rec.check(abs(f[v]) <= bound * (1.0 + 1e-10) + 1e-12,
                      f"point evaluation bound failed at vertex {v} (p={p})")
            n = int(rng.integers(0, tree.truncation_depth + 1))
            head = project(tree, f, n)
            rec.check(norm_p(head, weight, p) <= nf * (1.0 + 1e-12),
                      "truncation projection is not a contraction")
            rec.check(norm_p(f - head, weight, p) <= nf * (1.0 + 1e-12),
                      "complement of the truncation projection is not a contraction")
            rec.check(bool(np.array_equal(project(tree, head, n), head)),
                      "truncation projection is not idempotent")
    return rec.result()


def reference_suite_norms(seed: int) -> dict:
    rec = _Recorder("norms")
    rng = np.random.default_rng([seed, 202])
    for _ in range(20):
        op = random_injective_spec(rng)
        rs = ratio_sup(op).value
        nrm = operator_norm(op).value
        expected = rs ** (1.0 / op.p)
        rec.check(abs(nrm - expected) <= 1e-10 * max(expected, 1.0),
                  "injective norm identity: operator_norm != ratio_sup**(1/p)", op)
        m, big = bounds(op.weight)
        rec.check(rs <= (big / m) * (1.0 + 1e-12),
                  "ratio supremum exceeds the weight-bounds quotient", op)
    for _ in range(12):
        mult = int(rng.integers(2, 5))
        op = random_multiplicity_spec(rng, mult)
        rs = ratio_sup(op).value
        nrm = operator_norm(op).value
        low = rs ** (1.0 / op.p)
        high = (mult * rs) ** (1.0 / op.p)
        rec.check(low <= nrm * (1.0 + 1e-10) and nrm <= high * (1.0 + 1e-10),
                  "norm sandwich ratio_sup**(1/p) <= norm <= (M*ratio_sup)**(1/p) failed", op)
    for i in range(6):
        op = random_injective_spec(rng, p=2.0)
        mu1 = float(oracle.svd_values(oracle.matrix_of(op))[0])
        nrm = operator_norm(op).value
        rec.check(abs(mu1 - nrm) <= 1e-8 * max(nrm, 1.0),
                  "largest oracle singular value disagrees with the exact norm", op)
        found = oracle.norm_search(op, samples=20, seed=seed + i)
        rec.check(found <= nrm + 1e-9 and found >= nrm - 1e-9,
                  "stochastic norm search left the [norm - 1e-9, norm + 1e-9] window", op)
    return rec.result()


def reference_suite_isometry(seed: int) -> dict:
    rec = _Recorder("isometry")
    rng = np.random.default_rng([seed, 303])
    for _ in range(8):
        tree = random_bary_tree(rng, max_vertices=200)
        weight = constant_weight(tree, float(rng.uniform(0.1, 10.0)))
        symbol = random_nonidentity_permutation_map(rng, tree)
        p = _P_CHOICES[int(rng.integers(len(_P_CHOICES)))]
        op = OperatorSpec(tree, weight, symbol, p)
        verdict = isometry_check(op)
        rec.check(verdict.is_isometry,
                  "constant weight + vertex-set bijection must be an isometry", op)
        for _ in range(20):
            f = random_unit_function(rng, weight, p)
            rec.check(abs(norm_p(apply(op, f), weight, p) - 1.0) <= 1e-9,
                      "an isometry moved the norm of a unit function", op)

        # one weight entry nudged at a non-fixed vertex must flip the verdict
        moved = int(np.flatnonzero(symbol.image != np.arange(len(tree)))[0])
        nudged = weight.values.copy()
        nudged[moved] *= 1.01
        op_bad = OperatorSpec(tree, custom_weight(tree, nudged), symbol, p)
        bad = isometry_check(op_bad)
        rec.check(not bad.is_isometry, "perturbed weight still reported as isometry", op_bad)
        witness_ok = bad.witness_image_norm is not None and abs(bad.witness_image_norm - 1.0) > 1e-6
        rec.check(witness_ok, "non-isometry witness function does not deviate", op_bad)

        op2 = OperatorSpec(tree, weight, symbol, 2.0)
        gram = oracle.matrix_of(op2)
        gram = gram.T @ gram
        orthogonal = bool(np.max(np.abs(gram - np.eye(len(tree)))) <= 1e-10)
        rec.check(orthogonal == isometry_check(op2).is_isometry,
                  "isometry verdict disagrees with the oracle Gram identity", op2)
    return rec.result()


def scrambled_norm(f, weight, p):
    """norm_p times 1/2, 1 or 2, picked by a hash of each vector's bits: it
    breaks every check that compares two norms, and it is the same for a
    vector evaluated alone or as a row of a stack."""
    nrm = lpspace.norm_p(f, weight, p)
    rows = np.reshape(f, (-1, len(weight.tree)))
    factor = np.array([(0.5, 1.0, 2.0)[zlib.crc32(row.tobytes()) % 3] for row in rows])
    return nrm * factor if np.ndim(nrm) else float(nrm * factor[0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_suites_find_the_violations_of_the_one_vector_suites(monkeypatch, seed):
    for module in (verify, oracle_mod, instances, sys.modules[__name__], test_oracle, test_instances):
        monkeypatch.setattr(module, "norm_p", scrambled_norm)
    for name, reference in [("lpspace", reference_suite_lpspace), ("norms", reference_suite_norms),
                            ("isometry", reference_suite_isometry)]:
        batched = SUITES[name](seed)
        assert batched == reference(seed)
        assert batched["violations"], f"the scrambled norm must break some {name} check"


def test_norm_p_calls_per_verify_run(monkeypatch):
    # one call per batch of vectors; the one-vector suites made 1,356 calls at seed 0.
    # norm_search's batches are blocks of oracle._SEARCH_BLOCK entries (2^13; 106 calls at 2^16)
    calls = []

    def counted(f, weight, p):
        calls.append(np.shape(f))
        return lpspace.norm_p(f, weight, p)

    for module in (verify, oracle_mod, instances):
        monkeypatch.setattr(module, "norm_p", counted)
    assert run_verify(seed=0)["passed"]
    assert len(calls) == 108
