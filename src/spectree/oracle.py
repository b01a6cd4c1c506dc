"""Independent dense-matrix cross-check.

This module rebuilds the operator as an explicit matrix in the normalized
indicator basis and extracts singular values with a self-contained Jacobi
eigensolver. It deliberately avoids the analytic norm and spectrum formulas
it is meant to validate: entries come straight from the basis definition and
the diagonalization is numeric, so agreement with the closed forms is
genuine cross-validation rather than the same code path twice.

Dense storage makes this a desk-scale tool; callers are expected to skip
oracle checks above a few hundred vertices (600 by default in the reporting
layer) and say so in their reports. An experiment document may raise that cap
to at most 4096 vertices: the matrix and its Gram product are then 134 MB each.
The Jacobi solver copies the Gram only before its first rotation, so the
diagonal Gram of a composition operator costs no third such array.
"""

from __future__ import annotations

import math

import numpy as np

from .compop import OperatorSpec, apply
from .lpspace import norm_p

DEFAULT_MAX_ORACLE_VERTICES = 600
MAX_ORACLE_VERTICES = 4096  # ceiling on a document's oracle.max_vertices

_JACOBI_REL_TOL = 1e-14  # jacobi_eigenvalues' stopping rule
_JACOBI_MAX_SWEEPS = 100
_SEARCH_BLOCK = 1 << 13  # complex entries per stack that norm_search evaluates


def matrix_of(spec: OperatorSpec) -> np.ndarray:
    """Matrix of the operator in the normalized indicator basis.

    Entry [w, u] is indicator(symbol(w) == u) * sqrt(weight(w) / weight(u)),
    so each row carries at most one nonzero and column u holds one entry per
    preimage element. Rows of excluded vertices are zero.
    """
    if spec.p != 2.0:
        raise ValueError(f"the dense matrix lives on the p = 2 space, got p = {spec.p}")
    n = len(spec.tree)
    lam = spec.weight.values
    m = np.zeros((n, n), dtype=np.float64)
    dom = spec.symbol.domain
    img = spec.symbol.image[dom]
    m[dom, img] = np.sqrt(lam[dom] / lam[img])
    return m


def frobenius_norm(matrix: np.ndarray) -> float:
    matrix = np.asarray(matrix, dtype=np.float64)
    return float(np.sqrt(np.sum(matrix * matrix)))


def jacobi_eigenvalues(sym: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Each rotation zeroes one off-diagonal pair; sweeps repeat until the
    off-diagonal Frobenius norm falls below 1e-14 times the full Frobenius
    norm, or 100 sweeps have run, whichever comes first, so termination is
    deterministic. Returns eigenvalues in descending order.
    """
    a = np.asarray(sym, dtype=np.float64)  # read in place; copied before the first write
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    n = a.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.float64)

    for sweep in range(_JACOBI_MAX_SWEEPS):
        total = float(np.linalg.norm(a))
        if total == 0.0 or np.count_nonzero(a) == np.count_nonzero(np.diag(a)):
            break  # no off-diagonal entry: off_sq below is exactly 0
        # summed from the strict upper triangle: the difference of the full
        # and the diagonal sums would leave roundoff noise near 1e-8 relative
        upper = np.triu(a, 1)
        off_sq = 2.0 * float(np.sum(np.multiply(upper, upper, out=upper)))
        del upper
        if math.sqrt(off_sq) <= _JACOBI_REL_TOL * total:
            break
        if sweep == 0:  # an upper entry is nonzero, so this sweep writes: to a copy
            a = a.copy()
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


def _gram(matrix: np.ndarray) -> np.ndarray:
    """``matrix.T @ matrix``, by BLAS over the rows with two or more nonzeros: the
    others reach no off-diagonal entry. The diagonal is each column's sum of squares."""
    rows = np.count_nonzero(matrix, axis=1) > 1  # its n^2 mask is freed on return
    dense = matrix if rows.all() else matrix[rows]  # a dense matrix is not copied
    gram = dense.T @ dense
    np.fill_diagonal(gram, np.einsum("ij,ij->j", matrix, matrix))
    return gram


def svd_values(matrix: np.ndarray) -> np.ndarray:
    """All singular values of a real matrix, descending.

    Formed as square roots of the eigenvalues of the smaller Gram matrix (by
    :func:`_gram`, with no n^3 product on a composition matrix), which is symmetric
    positive semidefinite; tiny negative eigenvalues from roundoff are clipped to zero.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {matrix.shape}")
    # wide matrices are transposed, so ties keep the column Gram, diagonal at one nonzero a row
    eig = jacobi_eigenvalues(_gram(matrix.T if matrix.shape[1] > matrix.shape[0] else matrix))
    return np.sqrt(np.clip(eig, 0.0, None))


def norm_search(spec: OperatorSpec, samples: int = 64, seed: int = 0) -> float:
    """Stochastic lower bound on the operator norm at any exponent.

    Takes the best image norm over ``samples`` seeded random unit functions
    plus every normalized indicator. The indicator family contains the exact
    maximizer, so the search meets the closed-form norm up to roundoff while
    remaining a direct evaluation of ||C f||_p. Both families are evaluated as
    stacks of at most ``_SEARCH_BLOCK`` entries, so memory stays bounded.
    """
    samples = int(samples)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = len(spec.tree)
    rows = max(1, _SEARCH_BLOCK // n)
    # basis_vector's values, one scalar power per vertex as there
    scale = np.array([lam ** (-1.0 / spec.p) for lam in spec.weight.values])
    best = 0.0  # fmax lets no NaN norm win, as max() did one norm at a time
    for v0 in range(0, n, rows):
        vs = np.arange(v0, min(v0 + rows, n))
        indicators = np.zeros((len(vs), n), dtype=np.complex128)
        indicators[vs - v0, vs] = scale[vs]
        best = np.fmax.reduce(norm_p(apply(spec, indicators), spec.weight, spec.p), initial=best)
    rng = np.random.default_rng(seed)
    for s0 in range(0, samples, rows):
        # row i: sample i's real then imaginary parts, as two standard_normal(n) calls drew them
        draws = rng.standard_normal((min(rows, samples - s0), 2, n))
        z = draws[:, 0] + 1j * draws[:, 1]
        nz = norm_p(z, spec.weight, spec.p)
        unit = z[nz != 0.0] / nz[nz != 0.0, None]
        best = np.fmax.reduce(norm_p(apply(spec, unit), spec.weight, spec.p), initial=best)
    return float(best)
