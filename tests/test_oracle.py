import math

import numpy as np
import pytest

from spectree import (OperatorSpec, build_bary, compactness_profile, constant_weight,
                      custom_weight, dump_matrix_csv, frobenius_norm,
                      geometric_weight, identity_map, jacobi_eigenvalues,
                      matrix_of, norm_search, operator_norm, parent_map,
                      preimage_ratio, reciprocal_depth_weight,
                      singular_values_analytic, svd_values, tail_defect)
from spectree.instances import (random_bary_tree, random_bounded_multiplicity_map,
                                random_injective_spec, random_permutation_map,
                                random_weight)


def spec2(tree, weight, symbol):
    return OperatorSpec(tree, weight, symbol, 2.0)


def test_matrix_of_identity_map_is_identity():
    t = build_bary(2, 2)
    rng = np.random.default_rng(0)
    spec = spec2(t, random_weight(rng, t), identity_map(t))
    assert np.array_equal(matrix_of(spec), np.eye(len(t)))


def test_matrix_of_two_vertex_parent_map():
    t = build_bary(1, 1)
    spec = spec2(t, constant_weight(t, 1.0), parent_map(t))
    m = matrix_of(spec)
    assert np.array_equal(m, np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert svd_values(m) == pytest.approx([math.sqrt(2), 0.0], abs=1e-15)


def test_matrix_structure_for_total_maps():
    rng = np.random.default_rng(1)
    t = random_bary_tree(rng, max_vertices=100)
    w = constant_weight(t, 1.0)
    symbol = random_bounded_multiplicity_map(rng, t, 3)
    m = matrix_of(spec2(t, w, symbol))
    # constant weight: a 0/1 matrix with exactly one 1 per row
    assert set(np.unique(m)) <= {0.0, 1.0}
    assert (m.sum(axis=1) == 1.0).all()
    col = m.sum(axis=0)
    prof_counts = np.bincount(symbol.image, minlength=len(t))
    assert np.array_equal(col.astype(int), prof_counts)


def test_matrix_requires_p2():
    t = build_bary(1, 1)
    spec = OperatorSpec(t, constant_weight(t, 1.0), identity_map(t), 1.0)
    with pytest.raises(ValueError, match="p = 2"):
        matrix_of(spec)


def test_svd_values_identity_and_diagonal():
    assert svd_values(np.eye(5)) == pytest.approx([1.0] * 5)
    assert svd_values(np.diag([3.0, 2.0, 0.0])) == pytest.approx([3.0, 2.0, 0.0], abs=1e-15)
    tall = np.zeros((4, 2))
    tall[0, 0] = 2.0
    assert svd_values(tall) == pytest.approx([2.0, 0.0], abs=1e-15)


def test_svd_values_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        svd_values(np.array([[1.0, math.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.array([[math.inf]]))
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.ones((2, 3)))


def test_jacobi_matches_numpy_on_random_symmetric_matrices():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 8, 20, 40):
        a = rng.standard_normal((n, n)) * 10.0
        sym = (a + a.T) / 2.0
        ours = jacobi_eigenvalues(sym)
        ref = np.sort(np.linalg.eigvalsh(sym))[::-1]
        assert float(np.max(np.abs(ours - ref))) <= 1e-10


def test_jacobi_accuracy_with_large_entries():
    rng = np.random.default_rng(3)
    n = 30
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.sort(rng.uniform(0.0, 1e3, n))[::-1]
    sym = (q * eigs) @ q.T
    sym = (sym + sym.T) / 2.0
    ours = jacobi_eigenvalues(sym)
    ref = np.sort(np.linalg.eigvalsh(sym))[::-1]
    assert float(np.max(np.abs(ours - ref))) <= 1e-9


def test_jacobi_stops_at_once_on_a_diagonal_gram(monkeypatch):
    # binary depth 3, weight 1/(1+depth), parent map: C^T C is exactly
    # diagonal, but the full-minus-diagonal residual read about 1e-8
    # relative and never met the 1e-14 test, so all 100 sweeps ran
    t = build_bary(2, 3)
    m = matrix_of(spec2(t, reciprocal_depth_weight(t), parent_map(t)))
    gram = m.T @ m
    assert np.count_nonzero(gram - np.diag(np.diag(gram))) == 0
    norms = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: norms.append(1) or norm(*a, **k))
    eig = jacobi_eigenvalues(gram)
    assert len(norms) == 1  # one per sweep: the first residual test stops it
    assert np.array_equal(eig, np.sort(np.diag(gram))[::-1])


def test_svd_matches_numpy_on_random_rectangular_matrices():
    rng = np.random.default_rng(4)
    for shape in ((6, 6), (8, 3), (3, 8), (25, 25)):
        m = rng.standard_normal(shape) * 3.0
        ours = svd_values(m)
        ref = np.linalg.svd(m, compute_uv=False)
        assert ours.shape == ref.shape
        assert float(np.max(np.abs(ours - ref))) <= 1e-10


def test_frobenius_identity_ties_spectrum_to_preimage_ratios():
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = random_bary_tree(rng, max_vertices=200)
        w = random_weight(rng, t)
        symbol = random_bounded_multiplicity_map(rng, t, int(rng.integers(1, 4)))
        spec = spec2(t, w, symbol)
        m = matrix_of(spec)
        values = svd_values(m)
        frob2 = frobenius_norm(m) ** 2
        assert float(np.sum(values ** 2)) == pytest.approx(frob2, rel=1e-9)
        assert frob2 == pytest.approx(float(preimage_ratio(spec).sum()), rel=1e-12)


def test_oracle_agrees_with_analytic_spectrum():
    rng = np.random.default_rng(6)
    for _ in range(10):
        t = random_bary_tree(rng, max_vertices=200)
        w = random_weight(rng, t)
        symbol = random_permutation_map(rng, t)
        spec = spec2(t, w, symbol)
        assert float(np.max(np.abs(
            singular_values_analytic(spec) - svd_values(matrix_of(spec))))) <= 1e-8


def test_compactness_tail_and_tail_defect_match_the_dense_oracle(half_depth_ancestor_map):
    # s[N] is the squared norm of the operator restricted to inputs supported
    # at depth >= N, and tail_defect(n, N) the norm on inputs supported at depth > n
    t = build_bary(2, 6)
    specs = [spec2(t, geometric_weight(t, 0.5), half_depth_ancestor_map(t))]
    rng = np.random.default_rng(8)
    for _ in range(6):
        mult = int(rng.integers(2, 5))
        t = random_bary_tree(rng, max_vertices=150, min_vertices=mult + 2)
        specs.append(spec2(t, random_weight(rng, t), random_bounded_multiplicity_map(rng, t, mult)))
    for spec in specs:
        m, depth, D = matrix_of(spec), spec.tree.depth, spec.tree.truncation_depth

        def top_singular_value(columns):
            return float(svd_values(m * columns)[0])

        values = compactness_profile(spec).values
        for N in range(D + 1):
            assert values[N] == pytest.approx(top_singular_value(depth >= N) ** 2, rel=1e-10)
        for n in range(1, D + 1):
            expected = top_singular_value(depth > n)
            for N in range(n):
                assert tail_defect(spec, n, N) == pytest.approx(expected, rel=1e-10)


def test_orthogonality_detects_isometries():
    t = build_bary(2, 3)
    rng = np.random.default_rng(7)
    w = constant_weight(t, 1.0)
    m = matrix_of(spec2(t, w, random_permutation_map(rng, t)))
    assert float(np.max(np.abs(m.T @ m - np.eye(len(t))))) <= 1e-10
    values = w.values.copy()
    values[3] *= 1.01
    m2 = matrix_of(spec2(t, custom_weight(t, values), random_permutation_map(rng, t)))
    assert float(np.max(np.abs(m2.T @ m2 - np.eye(len(t))))) > 1e-10


def test_norm_search_identity_and_parent():
    t = build_bary(2, 2)
    w = constant_weight(t, 1.0)
    assert norm_search(OperatorSpec(t, w, identity_map(t), 1.5), samples=5) == pytest.approx(1.0, abs=1e-9)
    assert norm_search(spec2(t, w, parent_map(t)), samples=5) == pytest.approx(math.sqrt(3), abs=1e-9)
    with pytest.raises(ValueError):
        norm_search(spec2(t, w, parent_map(t)), samples=0)


def test_norm_search_brackets_the_exact_norm():
    rng = np.random.default_rng(8)
    for i in range(8):
        spec = random_injective_spec(rng, max_vertices=200)
        found = norm_search(spec, samples=16, seed=i)
        exact = operator_norm(spec).value
        assert found <= exact + 1e-9
        assert found >= exact - 1e-9


def test_norm_search_is_deterministic_per_seed():
    rng = np.random.default_rng(9)
    spec = random_injective_spec(rng, max_vertices=100)
    a = norm_search(spec, samples=12, seed=42)
    b = norm_search(spec, samples=12, seed=42)
    assert a == b


def test_matrix_csv_dump(tmp_path):
    t = build_bary(1, 1)
    m = matrix_of(spec2(t, constant_weight(t, 1.0), parent_map(t)))
    out = tmp_path / "matrix.csv"
    dump_matrix_csv(m, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "row,col,value"
    assert lines[1:] == ["0,0,1", "1,0,1"]
