"""Functions on the tree and the weighted p-norm machinery.

Tree functions are plain complex arrays indexed by vertex id; ``norm_p``
and ``compop.apply`` also take a ``(k, n)`` stack of them, one per row.
The inner product conjugates its second argument (the usual Hilbert
convention), so ``inner(f, f)`` is the squared 2-norm for complex f;
reports carry this convention note.
"""

from __future__ import annotations

import math

import numpy as np

from .tree import Tree, _check_vertex
from .weight import Weight

TreeFunction = np.ndarray


def validate_exponent(p: float) -> float:
    p = float(p)
    if math.isnan(p) or math.isinf(p) or p < 1.0:
        raise ValueError(f"exponent p must satisfy 1 <= p < infinity, got {p!r}")
    return p


def _as_function(tree: Tree, f, stack: bool = False) -> np.ndarray:
    f = np.asarray(f, dtype=np.complex128)
    if f.shape[-1:] != (len(tree),) or f.ndim > 1 + stack:
        raise ValueError(f"function needs one value per vertex ({len(tree)}), got shape {f.shape}")
    return f


def norm_p(f: TreeFunction, weight: Weight, p: float) -> float | np.ndarray:
    """[sum over v of |f(v)|^p * weight(v)] ** (1/p); on a ``(k, n)`` stack,
    the array of the k row norms, each equal to ``norm_p`` of its row."""
    p = validate_exponent(p)
    f = _as_function(weight.tree, f, stack=True)
    sums = np.sum(np.abs(f) ** p * weight.values, axis=-1)
    if f.ndim == 1:
        return float(sums ** (1.0 / p))
    # the root is taken per row: numpy's vectorized power may differ by an ulp
    return np.array([s ** (1.0 / p) for s in sums])


def inner(f: TreeFunction, g: TreeFunction, weight: Weight) -> complex:
    """sum over v of f(v) * conj(g(v)) * weight(v)."""
    f = _as_function(weight.tree, f)
    g = _as_function(weight.tree, g)
    return complex(np.sum(f * np.conj(g) * weight.values))


def basis_vector(weight: Weight, v: int, p: float) -> TreeFunction:
    """The normalized indicator of ``v``: value weight(v)**(-1/p) at v, zero
    elsewhere. A unit vector for every exponent and every positive weight."""
    p = validate_exponent(p)
    v = _check_vertex(weight.tree, v)
    f = np.zeros(len(weight.tree), dtype=np.complex128)
    f[v] = weight.values[v] ** (-1.0 / p)
    return f


def point_eval_norm(weight: Weight, v: int, p: float) -> float:
    """Norm of the evaluation functional f -> f(v): weight(v)**(-1/p).

    The bound |f(v)| <= weight(v)**(-1/p) * norm_p(f) is attained by the
    normalized indicator of v, so at truncation scale this is exact.
    """
    p = validate_exponent(p)
    v = _check_vertex(weight.tree, v)
    return float(weight.values[v] ** (-1.0 / p))


def project(tree: Tree, f: TreeFunction, n: int) -> TreeFunction:
    """Truncation projection: keep values at depth <= n, zero beyond.

    Idempotent, and both the projection and its complement are p-norm
    contractions for every weight.
    """
    n = int(n)
    if n < 0:
        raise ValueError("projection level must be >= 0")
    f = _as_function(tree, f)
    return np.where(tree.depth <= n, f, 0.0 + 0.0j)
