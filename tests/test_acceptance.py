"""Acceptance gate: one test per criterion, run at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v``; the terminal summary prints
one PASS/FAIL line per criterion.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from spectree import (OperatorSpec, adversary_unbounded,
                      adversary_vanishing, analyze, apply, basis_vector,
                      boundedness_trend, build_bary, compactness_profile,
                      constant_weight, custom_weight, depth_square_map,
                      frobenius_norm, geometric_weight, hs_norm, identity_map,
                      isometry_check, matrix_of, norm_p, operator_norm,
                      parent_map, project, point_eval_norm, ratio_sup,
                      reciprocal_depth_weight, singular_values_analytic,
                      svd_values, tail_defect, trace_diagonal,
                      vertices_at_level)
from spectree.cli import main as cli_main
from spectree.compop import TREND_UNBOUNDED, VERDICT_COMPACT, VERDICT_NOT_COMPACT
from spectree.instances import (random_bary_tree, random_bounded_multiplicity_map,
                                random_function, random_multiplicity_spec,
                                random_nonidentity_permutation_map,
                                random_permutation_map, random_unit_functions,
                                random_weight, structured_specs)

P_CYCLE = (1.0, 1.5, 2.0, 3.0)


def test_a01_injective_norm_identity():
    # 100 seeded random injective specs: exact norm equals the weight-ratio
    # supremum to the power 1/p; at p = 2 the oracle's top singular value
    # confirms it
    rng = np.random.default_rng(101)
    for i in range(100):
        p = P_CYCLE[i % 4]
        tree = random_bary_tree(rng, max_vertices=600)
        weight = random_weight(rng, tree)
        spec = OperatorSpec(tree, weight, random_permutation_map(rng, tree), p)
        expected = ratio_sup(spec).value ** (1.0 / p)
        nrm = operator_norm(spec).value
        assert abs(nrm - expected) <= 1e-10 * expected
        if p == 2.0:
            mu1 = float(svd_values(matrix_of(spec))[0])
            assert abs(mu1 - nrm) <= 1e-8 * nrm


def test_a02_constant_weight_norm_one():
    rng = np.random.default_rng(102)
    for i in range(50):
        tree = random_bary_tree(rng, max_vertices=600)
        weight = constant_weight(tree, float(rng.uniform(0.01, 100.0)))
        spec = OperatorSpec(tree, weight, random_permutation_map(rng, tree),
                            P_CYCLE[i % 4])
        assert abs(operator_norm(spec).value - 1.0) <= 1e-12


def test_a03_depth_square_ladder_reproduction():
    # reciprocal-depth weight + depth-squaring symbol on binary trees: the
    # ratio supremum on effective domain N is (1 + N^2)/(1 + N), checked in
    # exact rational arithmetic through the witness vertex
    ladder: list[Fraction] = []
    floats: list[float] = []
    for n in range(2, 11):
        depth = n * n
        tree = build_bary(2, depth, branch_until=n)
        spec = OperatorSpec(tree, reciprocal_depth_weight(tree),
                            depth_square_map(tree), 2.0)
        rs = ratio_sup(spec)
        witness = rs.witness
        image = int(spec.symbol.image[witness])
        exact = Fraction(1 + int(tree.depth[image]), 1 + int(tree.depth[witness]))
        assert exact == Fraction(1 + n * n, 1 + n)
        assert abs(rs.value - float(exact)) <= 1e-12 * float(exact)
        ladder.append(exact)
        floats.append(rs.value)
    assert all(b > a for a, b in zip(ladder, ladder[1:]))
    assert ladder[-1] == Fraction(101, 11)
    assert boundedness_trend(floats) == TREND_UNBOUNDED
    # the tapered generator carries the identical analyzed sub-instance
    for n in (2, 3):
        full = build_bary(2, n * n)
        spec_full = OperatorSpec(full, reciprocal_depth_weight(full),
                                 depth_square_map(full), 2.0)
        assert ratio_sup(spec_full).value == floats[n - 2]


def test_a04_adversary_growth_and_notfound():
    for depth in (16, 64):
        path = build_bary(1, depth)
        flat = constant_weight(path, 1.0)
        assert adversary_unbounded(path, flat) is None
        assert adversary_vanishing(path, flat) is None

    def achieved(builder, weight_of):
        sups = {}
        for depth in (16, 64):
            path = build_bary(1, depth)
            weight = weight_of(path)
            symbol = builder(path, weight)
            assert symbol is not None and analyze(symbol).injective
            sups[depth] = ratio_sup(OperatorSpec(path, weight, symbol, 2.0)).value
        return sups

    vanishing = achieved(adversary_vanishing, reciprocal_depth_weight)
    assert vanishing[64] >= 2.0 * vanishing[16]
    unbounded = achieved(adversary_unbounded, lambda t: geometric_weight(t, 2.0))
    assert unbounded[64] >= 2.0 * unbounded[16]


def test_a05_multiplicity_norm_sandwich():
    rng = np.random.default_rng(105)
    for i in range(100):
        mult = 2 + i % 3
        spec = random_multiplicity_spec(rng, mult, p=P_CYCLE[i % 4])
        rs = ratio_sup(spec).value
        nrm = operator_norm(spec).value
        low = rs ** (1.0 / spec.p)
        high = (mult * rs) ** (1.0 / spec.p)
        assert low <= nrm * (1.0 + 1e-10)
        assert nrm <= high * (1.0 + 1e-10)


def test_a06_isometry_verdicts():
    rng = np.random.default_rng(106)
    unit_checks = 0
    for i in range(10):
        tree = random_bary_tree(rng, max_vertices=400)
        weight = constant_weight(tree, float(rng.uniform(0.1, 10.0)))
        symbol = random_nonidentity_permutation_map(rng, tree)
        p = P_CYCLE[i % 4]
        spec = OperatorSpec(tree, weight, symbol, p)
        assert isometry_check(spec).is_isometry
        for f in random_unit_functions(rng, weight, p, 10):
            assert abs(norm_p(apply(spec, f), weight, p) - 1.0) <= 1e-9
            unit_checks += 1

        # a 1 percent nudge at a non-fixed vertex flips the verdict
        moved = int(np.flatnonzero(symbol.image != np.arange(len(tree)))[0])
        values = weight.values.copy()
        values[moved] *= 1.01
        bad_weight = custom_weight(tree, values)
        verdict = isometry_check(OperatorSpec(tree, bad_weight, symbol, p))
        assert not verdict.is_isometry
        assert verdict.reason == "ratio_deviation"
        (v,) = np.flatnonzero(symbol.image == verdict.witness_vertex)
        ratio = values[v] / values[int(symbol.image[v])]
        assert abs(ratio - 1.0) > 1e-12

        # at p = 2 the verdict matches the oracle Gram identity
        for w2, expected in ((weight, True), (bad_weight, False)):
            spec2 = OperatorSpec(tree, w2, symbol, 2.0)
            m = matrix_of(spec2)
            orthogonal = bool(np.max(np.abs(m.T @ m - np.eye(len(tree)))) <= 1e-10)
            assert orthogonal == expected == isometry_check(spec2).is_isometry
    assert unit_checks == 100


def test_a07_basis_point_eval_and_projection_bounds():
    rng = np.random.default_rng(107)
    trees = [random_bary_tree(rng, max_vertices=300) for _ in range(5)]
    weights = [random_weight(rng, t) for t in trees]

    for weight in weights:
        for p in P_CYCLE:
            for v in range(len(weight.tree)):
                assert abs(norm_p(basis_vector(weight, v, p), weight, p) - 1.0) <= 1e-12

    pairs = 0
    while pairs < 1000:
        k = int(rng.integers(len(trees)))
        tree, weight = trees[k], weights[k]
        p = P_CYCLE[pairs % 4]
        f = random_function(rng, tree)
        v = int(rng.integers(len(tree)))
        bound = point_eval_norm(weight, v, p) * norm_p(f, weight, p)
        assert abs(f[v]) <= bound * (1.0 + 1e-10) + 1e-15
        if pairs % 100 == 0:
            g = basis_vector(weight, v, p)
            assert abs(g[v]) == pytest.approx(
                point_eval_norm(weight, v, p) * norm_p(g, weight, p), rel=1e-12)
        pairs += 1

    for i in range(500):
        k = int(rng.integers(len(trees)))
        tree, weight = trees[k], weights[k]
        p = P_CYCLE[i % 4]
        f = random_function(rng, tree)
        n = int(rng.integers(0, tree.truncation_depth + 1))
        head = project(tree, f, n)
        nf = norm_p(f, weight, p)
        assert norm_p(head, weight, p) <= nf * (1.0 + 1e-12)
        assert norm_p(f - head, weight, p) <= nf * (1.0 + 1e-12)


def test_a08_tail_defect_bound():
    rng = np.random.default_rng(108)
    for _ in range(50):
        tree = random_bary_tree(rng, max_vertices=600)
        weight = random_weight(rng, tree)
        spec = OperatorSpec(tree, weight, random_permutation_map(rng, tree),
                            P_CYCLE[int(rng.integers(4))])
        s = compactness_profile(spec).values
        depth = tree.truncation_depth
        for low in sorted({0, depth // 2}):
            prev = None
            for n in range(low + 1, depth + 1):
                d = tail_defect(spec, n, low)
                assert d ** spec.p <= float(s[low]) + 1e-10
                if prev is not None:
                    assert d <= prev + 1e-12
                prev = d


def _oracle_collection(rng):
    specs = []
    for _ in range(50):
        if rng.integers(2):
            tree = random_bary_tree(rng, max_vertices=200)
            symbol = random_permutation_map(rng, tree)
        else:
            mult = int(rng.integers(2, 5))
            tree = random_bary_tree(rng, max_vertices=200, min_vertices=mult + 2)
            symbol = random_bounded_multiplicity_map(rng, tree, mult)
        weight = random_weight(rng, tree)
        specs.append(("random", OperatorSpec(tree, weight, symbol, 2.0)))
    structured = structured_specs(p=2.0)
    assert len(structured) == 10
    assert all(len(spec.tree) <= 600 for _, spec in structured)
    specs.extend(structured)
    return specs


def test_a09_hilbert_schmidt_identities():
    rng = np.random.default_rng(109)
    for label, spec in _oracle_collection(rng):
        frob2 = frobenius_norm(matrix_of(spec)) ** 2
        hs2 = hs_norm(spec) ** 2
        assert abs(hs2 - frob2) <= 1e-9 * max(frob2, 1e-300), label

    # closed form on geometric paths: hs = sqrt(1 + depth * ratio), exact in
    # binary floating point for dyadic ratios
    for ratio, depth in ((0.5, 6), (0.25, 12)):
        path = build_bary(1, depth)
        spec = OperatorSpec(path, geometric_weight(path, ratio), parent_map(path), 2.0)
        assert hs_norm(spec) == math.sqrt(1.0 + depth * ratio) == 2.0
    for ratio, depth in ((0.3, 7), (2.0, 9)):
        path = build_bary(1, depth)
        spec = OperatorSpec(path, geometric_weight(path, ratio), parent_map(path), 2.0)
        assert hs_norm(spec) == pytest.approx(math.sqrt(1.0 + depth * ratio), rel=1e-14)


def test_a10_spectrum_oracle_equivalence():
    rng = np.random.default_rng(110)
    started = time.monotonic()
    for label, spec in _oracle_collection(rng):
        analytic = singular_values_analytic(spec)
        numeric = svd_values(matrix_of(spec))
        assert analytic.shape == numeric.shape, label
        assert float(np.max(np.abs(analytic - numeric))) <= 1e-8, label
    assert time.monotonic() - started <= 60.0


def test_a11_trace_equals_fixed_point_count():
    rng = np.random.default_rng(111)
    for label, spec in _oracle_collection(rng):
        trace = trace_diagonal(spec)
        assert trace.value == float(trace.fixed_point_count), label
        assert trace.fixed_point_count == len(analyze(spec.symbol).fixed_points), label

    tree = build_bary(2, 4)
    weight = constant_weight(tree, 1.0)
    assert trace_diagonal(OperatorSpec(tree, weight, identity_map(tree), 2.0)) \
        == (float(len(tree)), len(tree))
    assert trace_diagonal(OperatorSpec(tree, weight, parent_map(tree), 2.0)) == (1.0, 1)
    t9 = build_bary(2, 9)
    w9 = constant_weight(t9, 1.0)
    level1 = vertices_at_level(t9, 1).size
    assert trace_diagonal(OperatorSpec(t9, w9, depth_square_map(t9), 2.0)) \
        == (float(1 + level1), 1 + level1)


def test_a12_compactness_diagnostics():
    tree = build_bary(2, 10)
    flat = constant_weight(tree, 1.0)
    prof = compactness_profile(OperatorSpec(tree, flat, identity_map(tree), 2.0))
    assert (prof.values == 1.0).all()
    assert prof.verdict == VERDICT_NOT_COMPACT

    spec = OperatorSpec(tree, geometric_weight(tree, 0.5), depth_square_map(tree), 2.0)
    prof = compactness_profile(spec)
    assert float(prof.values[-1]) < 0.1 * float(prof.values[0])
    assert prof.verdict == VERDICT_COMPACT
    # the decay rests on the truncation frontier and the profile says so
    assert prof.frontier_cliff


def test_a13_verify_is_deterministic(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli_main(["verify", "--seed", "20", "--out", str(first)]) == 0
    assert cli_main(["verify", "--seed", "20", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["passed"] and payload["seed"] == 20
