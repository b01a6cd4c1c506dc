import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectree import (OperatorSpec, basis_vector, build_bary, compactness_profile,
                      constant_weight, custom_weight, frobenius_norm,
                      geometric_weight, identity_map, jacobi_eigenvalues,
                      matrix_of, norm_p, norm_search, operator_norm, parent_map,
                      preimage_ratio, reciprocal_depth_weight,
                      singular_values_analytic, svd_values, tail_defect)
from spectree import lpspace
from spectree import oracle as oracle_mod
from spectree.instances import (random_bary_tree, random_bounded_multiplicity_map,
                                random_injective_spec, random_multiplicity_spec,
                                random_permutation_map, random_weight)


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


def reference_jacobi(sym: np.ndarray) -> np.ndarray:
    # jacobi_eigenvalues as it was before it read its input in place
    a = np.array(sym, dtype=np.float64, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    n = a.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.float64)

    for _ in range(100):
        total = float(np.linalg.norm(a))
        if total == 0.0:
            break
        # summed from the strict upper triangle: the difference of the full
        # and the diagonal sums would leave roundoff noise near 1e-8 relative
        off_sq = 2.0 * float(np.sum(np.triu(a, 1) ** 2))
        if math.sqrt(off_sq) <= 1e-14 * total:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                diff = a[q, q] - a[p, p]
                if abs(apq) <= 1e-150 * abs(diff):
                    # negligible at working precision, and the rotation angle
                    # would underflow; drop the pair outright
                    a[p, q] = 0.0
                    a[q, p] = 0.0
                    continue
                theta = diff / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                # the rotation angle is chosen to annihilate this pair
                a[p, q] = 0.0
                a[q, p] = 0.0
    return np.sort(np.diag(a))[::-1]


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return (a + a.T) / 2.0


def jacobi_cases():
    rng = np.random.default_rng(6)
    yield np.zeros((0, 0))
    yield np.zeros((4, 4))
    yield np.array([[-2.5]])
    yield np.diag([3.0, -1.0, 0.0, 1e-300])
    yield np.array([[1.0, 1e-160], [1e-160, 2.0]])  # not diagonal, but off_sq underflows to 0
    # the first write zeroes a negligible pair, then a rotation follows
    yield np.array([[1.0, 1e-160, 0.0], [1e-160, 2.0, 1.0], [0.0, 1.0, 3.0]])
    for n in (2, 3, 8, 20):
        yield random_symmetric(rng, n)
    yield random_symmetric(rng, 12, 1e150)
    yield random_symmetric(rng, 12, 1e-150)
    yield np.array([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    yield [[1.0, 2.0], [2.0, -1.0]]


def test_jacobi_equals_the_copying_reference_bit_for_bit():
    for case in jacobi_cases():
        got, want = jacobi_eigenvalues(case), reference_jacobi(case)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.filterwarnings("ignore:the matrix subclass:PendingDeprecationWarning")
def test_jacobi_never_writes_its_input():
    rng = np.random.default_rng(7)
    sym = random_symmetric(rng, 9)
    big = random_symmetric(rng, 18)
    for case in (sym, big[::2, ::2], big[::2, ::2].T, np.matrix(sym)):
        before = np.array(case, copy=True)
        writable = case.flags.writeable
        assert np.array_equal(jacobi_eigenvalues(case), reference_jacobi(before))
        assert np.array_equal(np.asarray(case), before)
        assert case.flags.writeable == writable
    for case in (sym, np.array([[1.0, 1e-160, 0.0], [1e-160, 2.0, 1.0], [0.0, 1.0, 3.0]])):
        frozen = case.copy()
        frozen.setflags(write=False)  # every write lands in the solver's own copy
        assert np.array_equal(jacobi_eigenvalues(frozen), reference_jacobi(case))


def test_svd_values_peaks_below_a_quarter_above_the_gram():
    # the oracle's case: the parent map makes the Gram diagonal, so the
    # solver stops at once and needs no copy of it
    t = build_bary(2, 8)  # 511 vertices
    m = matrix_of(spec2(t, geometric_weight(t, 0.5), parent_map(t)))
    gram_bytes = m.shape[1] ** 2 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        values = svd_values(m)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(values, np.sqrt(np.clip(reference_jacobi(m.T @ m), 0.0, None)))
    assert peak < 1.25 * gram_bytes, f"{peak / gram_bytes:.2f} Grams"


def test_svd_matches_numpy_on_random_rectangular_matrices():
    rng = np.random.default_rng(4)
    for shape in ((6, 6), (8, 3), (3, 8), (25, 25)):
        m = rng.standard_normal(shape) * 3.0
        ours = svd_values(m)
        ref = np.linalg.svd(m, compute_uv=False)
        assert ours.shape == ref.shape
        assert float(np.max(np.abs(ours - ref))) <= 1e-10


# entries of either sign, 2**-30 to 2**30 in size: no product underflows or overflows
ENTRIES = st.builds(math.copysign, st.floats(2.0 ** -30, 2.0 ** 30), st.sampled_from([1.0, -1.0]))


@st.composite
def row_sparse_matrices(draw):
    """Tall, wide, square and empty matrices whose rows hold 0, 1 or several nonzeros."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    m = np.zeros((rows, cols))
    for row in m:
        places = draw(st.lists(st.integers(0, cols - 1), max_size=min(cols, 4), unique=True)
                      if cols else st.just([]))
        row[places] = draw(st.lists(ENTRIES, min_size=len(places), max_size=len(places)))
    return m


def gamma(n):
    """n eps / (1 - n eps), eps = 2**-52: twice Higham's bound on the relative
    error of an n-term dot product in any order (Accuracy and Stability of
    Numerical Algorithms, 2002, section 3.1), so it bounds the gap between two
    such products."""
    n_eps = n * 2.0 ** -52
    return n_eps / (1 - n_eps)


@settings(deadline=None)
@given(row_sparse_matrices())
def test_gram_is_the_blas_gram_and_diagonal_without_dense_rows(m):
    # svd_values forms the Gram of a wide matrix's transpose
    tall = m.T if m.shape[1] > m.shape[0] else m
    gram, blas = oracle_mod._gram(tall), tall.T @ tall
    norms = np.sqrt(np.einsum("ij,ij->j", tall, tall))
    assert gram.shape == blas.shape
    assert (np.abs(gram - blas) <= gamma(tall.shape[0]) * np.outer(norms, norms)).all()
    if (np.count_nonzero(tall, axis=1) <= 1).all():  # no row reaches off the diagonal
        assert (gram[~np.eye(len(gram), dtype=bool)] == 0.0).all()
    # a Gram method resolves squared singular values to roundoff of sigma_max**2
    ours, ref = svd_values(m), np.linalg.svd(m, compute_uv=False)
    assert ours.shape == ref.shape
    if ref.size:
        assert (np.abs(ours ** 2 - ref ** 2) <= 1e-12 * ref[0] ** 2).all()


@settings(deadline=None)
@given(row_sparse_matrices().filter(lambda m: m.size),
       st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 48))
def test_svd_values_rejects_a_nonfinite_entry_anywhere(m, bad, at):
    m.flat[at % m.size] = bad
    # inf times a zero of a dense row is nan in the product, as it was before
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="entries must be finite"):
        svd_values(m)


def test_a_matrix_with_dense_rows_reaches_blas():
    # row 0 reaches off the diagonal; rows 1 to 3 hold at most one nonzero each
    m = np.array([[1.0, 2.0, 3.0], [0.0, 4.0, 0.0], [0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    dense = np.arange(1.0, 7.0).reshape(3, 2)
    products = []  # the right operand of each product
    matmul = np.ndarray.__matmul__

    class Spy(np.ndarray):
        def __matmul__(self, other):
            products.append(other)
            return matmul(np.asarray(self), np.asarray(other))

    assert np.array_equal(oracle_mod._gram(m.view(Spy)), m.T @ m)
    assert products[0].shape == (1, 3)  # the one dense row
    assert np.array_equal(oracle_mod._gram(dense.view(Spy)), dense.T @ dense)
    assert np.shares_memory(products[1], dense)  # a matrix of dense rows is not copied


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


def reference_norm_search(spec: OperatorSpec, samples: int = 64, seed: int = 0) -> float:
    """norm_search as it was, one vector per norm_p call."""
    samples = int(samples)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = len(spec.tree)
    dom = spec.symbol.domain_index
    img = spec.symbol.image[dom]

    def image_norm(f: np.ndarray) -> float:
        g = np.zeros(n, dtype=np.complex128)
        g[dom] = f[img]
        return norm_p(g, spec.weight, spec.p)

    best = 0.0
    for v in range(n):
        best = max(best, image_norm(basis_vector(spec.weight, v, spec.p)))
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        nz = norm_p(z, spec.weight, spec.p)
        if nz == 0.0:
            continue
        best = max(best, image_norm(z / nz))
    return float(best)


def search_specs():
    rng = np.random.default_rng(31)
    specs = [random_injective_spec(rng) for _ in range(6)]
    specs += [random_multiplicity_spec(rng, mult) for mult in (2, 3, 4, 2, 3, 4)]
    tree = build_bary(3, 6)  # 1,093 vertices: more than one block of indicator rows
    specs += [OperatorSpec(tree, random_weight(rng, tree), symbol, p)
              for symbol, p in ((parent_map(tree), 1.5), (random_permutation_map(rng, tree), 3.0))]
    return specs


def test_norm_search_equals_the_one_vector_loop():
    for i, spec in enumerate(search_specs()):
        for samples in (1, 2, 17, 70):
            assert norm_search(spec, samples, seed=i) == reference_norm_search(spec, samples, seed=i)


def test_norm_search_evaluates_the_same_vectors(monkeypatch):
    # every vector handed to norm_p is recorded by its bits: a sample drawn,
    # scaled or mapped differently, or a block row dropped or shifted, shows
    seen = []

    def recorded(f, weight, p):
        seen.extend(row.tobytes() for row in np.reshape(f, (-1, len(weight.tree))))
        return lpspace.norm_p(f, weight, p)

    for module in (oracle_mod, sys.modules[__name__]):
        monkeypatch.setattr(module, "norm_p", recorded)
    for i, spec in enumerate(search_specs()):
        for samples in (1, 3, 70):
            found = norm_search(spec, samples, seed=i)
            batched, seen[:] = sorted(seen), []
            assert found == reference_norm_search(spec, samples, seed=i)
            assert batched == sorted(seen)
            assert len(seen) == len(spec.tree) + 2 * samples
            seen.clear()


def test_norm_search_memory_is_bounded_by_its_block():
    tree = build_bary(3, 5)  # 364 vertices
    spec = OperatorSpec(tree, random_weight(np.random.default_rng(4), tree), parent_map(tree), 2.0)
    tracemalloc.start()
    try:
        norm_search(spec, samples=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 20,000 samples of 364 complex entries drawn at once would take 116 MB
    assert peak < 8 * 2 ** 20
