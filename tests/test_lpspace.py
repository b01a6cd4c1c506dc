import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectree import (OperatorSpec, apply, basis_vector, build_bary, constant_weight,
                      custom_weight, depth_square_map, identity_map, inner, level_shift_map,
                      norm_p, parent_map, point_eval_norm, project, validate_exponent)
from spectree.instances import random_function

P_GRID = (1.0, 1.5, 2.0, 3.0)


def small_weight(seed=0):
    t = build_bary(2, 3)
    rng = np.random.default_rng(seed)
    return custom_weight(t, rng.uniform(0.05, 20.0, len(t)))


def test_exponent_validation():
    assert validate_exponent(1) == 1.0
    for bad in (0.5, 0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            validate_exponent(bad)


def test_norm_of_zero_and_indicator():
    t = build_bary(2, 2)
    w = constant_weight(t, 1.0)
    zero = np.zeros(len(t), dtype=complex)
    for p in P_GRID:
        assert norm_p(zero, w, p) == 0.0
        ind = np.zeros(len(t), dtype=complex)
        ind[3] = 1.0
        assert norm_p(ind, w, p) == 1.0


def test_norm_of_ones_on_seven_vertices():
    t = build_bary(2, 2)
    w = constant_weight(t, 1.0)
    ones = np.ones(len(t), dtype=complex)
    assert norm_p(ones, w, 2.0) == pytest.approx(math.sqrt(7), rel=1e-15)


def test_inner_product_is_conjugate_linear_in_second_argument():
    w = small_weight(1)
    rng = np.random.default_rng(2)
    f = random_function(rng, w.tree)
    g = random_function(rng, w.tree)
    assert inner(f, g, w) == pytest.approx(np.conj(inner(g, f, w)), rel=1e-12)
    assert inner(f, np.zeros_like(f), w) == 0
    assert inner(f, f, w).real == pytest.approx(norm_p(f, w, 2.0) ** 2, rel=1e-12)
    assert abs(inner(f, f, w).imag) <= 1e-12 * norm_p(f, w, 2.0) ** 2
    # scaling the second slot by i comes back conjugated
    assert inner(f, 1j * g, w) == pytest.approx(-1j * inner(f, g, w), rel=1e-12)


def test_basis_vectors_are_orthonormal_at_p2():
    w = small_weight(3)
    n = len(w.tree)
    gram = np.empty((n, n), dtype=complex)
    vecs = [basis_vector(w, v, 2.0) for v in range(n)]
    for i in range(n):
        for j in range(n):
            gram[i, j] = inner(vecs[i], vecs[j], w)
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-12


def test_basis_vector_values():
    t = build_bary(1, 1)
    w = custom_weight(t, [0.25, 1.0])
    assert basis_vector(w, 0, 2.0)[0] == 2.0
    assert basis_vector(w, 0, 1.0)[0] == 4.0
    plain = basis_vector(constant_weight(t, 1.0), 1, 3.0)
    assert plain[1] == 1.0 and plain[0] == 0.0


def test_basis_vectors_have_unit_norm_everywhere():
    w = small_weight(4)
    for p in P_GRID:
        for v in range(len(w.tree)):
            assert abs(norm_p(basis_vector(w, v, p), w, p) - 1.0) <= 1e-12


def test_point_eval_norm_values():
    t = build_bary(1, 1)
    assert point_eval_norm(constant_weight(t, 1.0), 0, 2.0) == 1.0
    w = custom_weight(t, [0.25, 0.1])
    assert point_eval_norm(w, 0, 2.0) == pytest.approx(2.0, rel=1e-15)
    assert point_eval_norm(w, 1, 1.0) == pytest.approx(10.0, rel=1e-15)


def test_point_evaluation_bound_with_equality_at_basis():
    w = small_weight(5)
    rng = np.random.default_rng(6)
    for p in P_GRID:
        for _ in range(50):
            f = random_function(rng, w.tree)
            v = int(rng.integers(len(w.tree)))
            bound = point_eval_norm(w, v, p) * norm_p(f, w, p)
            assert abs(f[v]) <= bound * (1 + 1e-12) + 1e-15
        v = int(rng.integers(len(w.tree)))
        f = basis_vector(w, v, p)
        assert abs(f[v]) == pytest.approx(point_eval_norm(w, v, p), rel=1e-12)


def test_projection_examples():
    t = build_bary(2, 2)
    w = constant_weight(t, 1.0)
    ones = np.ones(len(t), dtype=complex)
    assert np.array_equal(project(t, ones, 2), ones)
    assert np.array_equal(project(t, ones, 5), ones)
    head = project(t, ones, 0)
    assert head[0] == 1.0 and (head[1:] == 0).all()
    assert norm_p(project(t, ones, 1), w, 2.0) == pytest.approx(math.sqrt(3), rel=1e-15)
    assert norm_p(ones - project(t, ones, 1), w, 2.0) == pytest.approx(2.0, rel=1e-15)


def test_projection_is_idempotent_and_contractive():
    w = small_weight(7)
    t = w.tree
    rng = np.random.default_rng(8)
    for _ in range(25):
        f = random_function(rng, t)
        n = int(rng.integers(0, t.truncation_depth + 1))
        p = P_GRID[int(rng.integers(len(P_GRID)))]
        head = project(t, f, n)
        assert np.array_equal(project(t, head, n), head)
        assert norm_p(head, w, p) <= norm_p(f, w, p) * (1 + 1e-12)
        assert norm_p(f - head, w, p) <= norm_p(f, w, p) * (1 + 1e-12)


def test_projection_equality_cases():
    w = small_weight(9)
    t = w.tree
    f = basis_vector(w, 0, 2.0)  # supported at the root
    assert norm_p(project(t, f, 0), w, 2.0) == pytest.approx(1.0)
    frontier = int(t.level_start[t.truncation_depth])
    g = basis_vector(w, frontier, 2.0)  # unsupported below the frontier
    assert norm_p(g - project(t, g, 0), w, 2.0) == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(P_GRID))
def test_norm_triangle_inequality_and_homogeneity(seed, p):
    w = small_weight(11)
    rng = np.random.default_rng(seed)
    f = random_function(rng, w.tree)
    g = random_function(rng, w.tree)
    nf, ng = norm_p(f, w, p), norm_p(g, w, p)
    assert norm_p(f + g, w, p) <= nf + ng + 1e-10
    c = rng.uniform(0.0, 7.0)
    assert norm_p(c * f, w, p) == pytest.approx(c * nf, rel=1e-10, abs=1e-12)


def test_shape_mismatch_rejected():
    t = build_bary(2, 1)
    w = constant_weight(t, 1.0)
    with pytest.raises(ValueError):
        norm_p(np.ones(5), w, 2.0)
    with pytest.raises(ValueError):
        project(t, np.ones(5), 1)


_SYMBOLS = (identity_map, parent_map, lambda t: level_shift_map(t, 1), depth_square_map)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.sampled_from(P_GRID), st.integers(0, 2 ** 31 - 1),
       st.lists(st.booleans(), min_size=1, max_size=6), st.integers(0, len(_SYMBOLS) - 1))
def test_stacked_norm_and_apply_equal_their_rows_bit_for_bit(branching, depth, p, seed, zero_rows,
                                                             symbol):
    tree = build_bary(branching, depth)
    n = len(tree)
    rng = np.random.default_rng(seed)
    weight = custom_weight(tree, rng.uniform(0.01, 100.0, n))
    stack = rng.standard_normal((len(zero_rows), n)) + 1j * rng.standard_normal((len(zero_rows), n))
    stack[zero_rows] = 0.0
    norms = norm_p(stack, weight, p)
    assert norms.shape == (len(zero_rows),)
    assert norms.tolist() == [norm_p(row, weight, p) for row in stack]
    spec = OperatorSpec(tree, weight, _SYMBOLS[symbol](tree), p)
    images = apply(spec, stack)
    assert np.array_equal(images, [apply(spec, row) for row in stack])
    assert norm_p(images, weight, p).tolist() == [norm_p(apply(spec, row), weight, p) for row in stack]


def test_inner_and_project_refuse_a_stack():
    w = small_weight(12)
    stack = np.ones((3, len(w.tree)), dtype=complex)
    with pytest.raises(ValueError, match="one value per vertex"):
        inner(stack, stack, w)
    with pytest.raises(ValueError, match="one value per vertex"):
        inner(stack[0], stack, w)
    with pytest.raises(ValueError, match="one value per vertex"):
        project(w.tree, stack, 1)
    with pytest.raises(ValueError, match="one value per vertex"):
        norm_p(stack[None], w, 2.0)  # a stack of stacks
