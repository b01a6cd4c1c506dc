import math

import numpy as np
import pytest

from spectree import (OperatorSpec, analyze, build_bary, constant_weight,
                      depth_square_map, frobenius_norm, geometric_weight,
                      hs_norm, identity_map, matrix_of, operator_norm,
                      parent_map, schatten_sum, schatten_trend,
                      singular_values_analytic, svd_values,
                      trace_diagonal, vertices_at_level)
from spectree.instances import (random_bary_tree, random_bounded_multiplicity_map,
                                random_injective_spec, random_weight)
from spectree.schatten import TREND_CONVERGING, TREND_DIVERGING


def spec2(tree, weight, symbol):
    return OperatorSpec(tree, weight, symbol, 2.0)


def test_identity_spectrum_is_all_ones():
    t = build_bary(2, 3)
    rng = np.random.default_rng(0)
    spec = spec2(t, random_weight(rng, t), identity_map(t))
    assert (singular_values_analytic(spec) == 1.0).all()
    assert hs_norm(spec) == pytest.approx(math.sqrt(len(t)), rel=1e-15)
    assert schatten_sum(spec, 3.0) == pytest.approx(len(t), rel=1e-15)


def test_parent_map_spectrum_on_binary_depth_two():
    t = build_bary(2, 2)
    spec = spec2(t, constant_weight(t, 1.0), parent_map(t))
    expected = [math.sqrt(3), math.sqrt(2), math.sqrt(2), 0.0, 0.0, 0.0, 0.0]
    assert singular_values_analytic(spec) == pytest.approx(expected, abs=1e-14)


def test_parent_map_spectrum_on_geometric_path():
    c, depth = 0.5, 6
    t = build_bary(1, depth)
    spec = spec2(t, geometric_weight(t, c), parent_map(t))
    values = singular_values_analytic(spec)
    expected = sorted([math.sqrt(1 + c)] + [math.sqrt(c)] * (depth - 1) + [0.0],
                      reverse=True)
    assert values == pytest.approx(expected, abs=1e-15)
    # closed form for the Hilbert-Schmidt norm on this family
    assert hs_norm(spec) == math.sqrt(1 + depth * c)
    assert hs_norm(spec) == 2.0  # exact in binary floating point


def test_hs_norm_matches_oracle_frobenius():
    rng = np.random.default_rng(1)
    for _ in range(8):
        spec = random_injective_spec(rng, p=2.0, max_vertices=200)
        frob = frobenius_norm(matrix_of(spec))
        assert hs_norm(spec) ** 2 == pytest.approx(frob ** 2, rel=1e-9)


def test_schatten_sum_identities():
    t = build_bary(3, 2)
    rng = np.random.default_rng(2)
    w = random_weight(rng, t)
    spec = spec2(t, w, identity_map(t))
    for q in (1.0, 2.0, 3.5):
        assert schatten_sum(spec, q) == pytest.approx(len(t), rel=1e-14)
    spec = spec2(t, w, parent_map(t))
    assert schatten_sum(spec, 2.0) == pytest.approx(hs_norm(spec) ** 2, rel=1e-12)
    values = singular_values_analytic(spec)
    for q in (1.0, 2.0, 4.0):
        assert schatten_sum(spec, q) == pytest.approx(float(np.sum(values ** q)), rel=1e-12)
    with pytest.raises(ValueError):
        schatten_sum(spec, 0.5)


def test_schatten_sum_geometric_path_example():
    c, depth = 0.25, 8
    t = build_bary(1, depth)
    spec = spec2(t, geometric_weight(t, c), parent_map(t))
    expected = math.sqrt(1 + c) + (depth - 1) * math.sqrt(c)
    assert schatten_sum(spec, 1.0) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(math.sqrt(1.25) + 3.5, rel=1e-15)


def test_schatten_sums_decrease_in_q_for_contractive_spectra():
    t = build_bary(2, 10, branch_until=3)
    spec = spec2(t, geometric_weight(t, 2.0), depth_square_map(t))
    assert (singular_values_analytic(spec) <= 1.0).all()
    sums = [schatten_sum(spec, q) for q in (1.0, 1.5, 2.0, 3.0, 4.0)]
    assert all(b <= a + 1e-12 for a, b in zip(sums, sums[1:]))


def test_schatten_partial_sums_grow_with_depth():
    for q in (1.0, 2.0, 4.0):
        sums = []
        for depth in (2, 4, 6, 8):
            t = build_bary(2, depth)
            sums.append(schatten_sum(spec2(t, reciprocal_depth_weight_like(t), parent_map(t)), q))
        assert all(b >= a - 1e-12 for a, b in zip(sums, sums[1:]))


def reciprocal_depth_weight_like(tree):
    from spectree import reciprocal_depth_weight
    return reciprocal_depth_weight(tree)


def test_trace_examples():
    t = build_bary(2, 3)
    rng = np.random.default_rng(3)
    w = random_weight(rng, t)
    assert trace_diagonal(spec2(t, w, identity_map(t))) == (float(len(t)), len(t))
    assert trace_diagonal(spec2(t, w, parent_map(t))) == (1.0, 1)
    t9 = build_bary(2, 9)
    spec = spec2(t9, constant_weight(t9, 1.0), depth_square_map(t9))
    level1 = vertices_at_level(t9, 1).size
    assert trace_diagonal(spec) == (float(1 + level1), 1 + level1)


def test_trace_is_an_integer_identity_on_random_specs():
    rng = np.random.default_rng(4)
    for _ in range(15):
        mult = int(rng.integers(1, 4))
        tree = random_bary_tree(rng, max_vertices=200, min_vertices=mult + 2)
        w = random_weight(rng, tree)
        symbol = random_bounded_multiplicity_map(rng, tree, mult)
        spec = spec2(tree, w, symbol)
        trace = trace_diagonal(spec)
        assert trace.value == float(trace.fixed_point_count)
        assert trace.fixed_point_count == len(analyze(symbol).fixed_points)
        # the oracle matrix diagonal tells the same integer story
        assert float(np.trace(matrix_of(spec))) == trace.value


def test_top_singular_value_is_the_operator_norm():
    rng = np.random.default_rng(5)
    for _ in range(10):
        spec = random_injective_spec(rng, p=2.0)
        top = float(singular_values_analytic(spec)[0])
        assert top == pytest.approx(operator_norm(spec).value, abs=1e-10)


def test_spectrum_matches_oracle_for_partial_domain_symbol():
    t = build_bary(2, 9)
    spec = spec2(t, geometric_weight(t, 2.0), depth_square_map(t))
    analytic = singular_values_analytic(spec)
    numeric = svd_values(matrix_of(spec))
    assert analytic.shape == numeric.shape
    assert float(np.max(np.abs(analytic - numeric))) <= 1e-8


def test_spectral_quantities_consistency():
    t = build_bary(2, 2)
    spec = spec2(t, constant_weight(t, 1.0), parent_map(t))
    assert hs_norm(spec) ** 2 == pytest.approx(schatten_sum(spec, 2.0), rel=1e-12)
    assert trace_diagonal(spec).fixed_point_count == 1
    sv = singular_values_analytic(spec)
    assert (sv >= 0).all() and (np.diff(sv) <= 0).all()


def test_requires_hilbert_exponent():
    t = build_bary(1, 2)
    spec = OperatorSpec(t, constant_weight(t, 1.0), identity_map(t), 3.0)
    for fn in (singular_values_analytic, hs_norm, trace_diagonal):
        with pytest.raises(ValueError, match="p = 2"):
            fn(spec)
    with pytest.raises(ValueError, match="p = 2"):
        schatten_sum(spec, 2.0)


def test_schatten_trend_vocabulary():
    t_sums = []
    for depth in (4, 9, 16, 25, 36):
        t = build_bary(2, depth, branch_until=math.isqrt(depth))
        spec = spec2(t, geometric_weight(t, 2.0), depth_square_map(t))
        t_sums.append(schatten_sum(spec, 2.0))
    assert schatten_trend(t_sums) == TREND_CONVERGING
    diverging = [7.0, 15.0, 31.0, 63.0]
    assert schatten_trend(diverging) == TREND_DIVERGING
    assert schatten_trend([1.0]) == "inconclusive"
