"""Singular values and Schatten-class diagnostics on the p = 2 space.

In the orthonormal basis of normalized indicators the operator matrix has at
most one nonzero per row, so C*C is diagonal with entries
w(preimage(u)) / w(u). The singular values are therefore the square roots of
those diagonal entries, for injective and bounded-multiplicity symbols alike;
everything below is cross-checked against the dense-matrix oracle.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .compop import TREND_INCONCLUSIVE, ClassView, OperatorSpec

TREND_CONVERGING = "converging"
TREND_DIVERGING = "diverging"

_CONVERGE_REL_TOL = 1e-6  # schatten_trend's relative final increments
_DIVERGE_REL_FLOOR = 1e-2


def _require_hilbert(spec: ClassView) -> None:
    if spec.p != 2.0:
        raise ValueError(f"Schatten-side quantities live on the p = 2 Hilbert space, got p = {spec.p}")


def singular_value_classes(spec: ClassView) -> tuple[np.ndarray, np.ndarray]:
    """The singular values sqrt(w(preimage(u)) / w(u)) of the operator's
    classes, descending, with the number of vertices that carry each."""
    _require_hilbert(spec)
    values = np.sqrt(spec._h)
    order = np.argsort(values, kind="stable")[::-1]
    return values[order], spec._class_sizes[order]


def singular_values_analytic(spec: ClassView) -> np.ndarray:
    """All singular values, sqrt(w(preimage(u)) / w(u)) for each vertex u,
    descending; targets nobody reaches contribute zeros."""
    return np.repeat(*singular_value_classes(spec))


def hs_norm(spec: ClassView) -> float:
    """Hilbert-Schmidt norm: [sum_u w(preimage(u)) / w(u)] ** (1/2)."""
    _require_hilbert(spec)
    return float(np.sqrt(spec._sum(spec._h)))


def schatten_sum(spec: ClassView, q: float) -> float:
    """Partial Schatten sum sum_u [w(preimage(u)) / w(u)]^(q/2) over the
    truncation. Coincides with the sum of the q-th powers of the singular
    values because the diagonal entries are the squared singular values."""
    _require_hilbert(spec)
    q = float(q)
    if not q >= 1.0:
        raise ValueError(f"Schatten exponent must satisfy q >= 1, got {q!r}")
    # empty preimages contribute 0 ** (q/2) == 0; summing over every vertex
    # keeps the q = 2 case the same summation as the squared Hilbert-Schmidt norm
    return spec._sum(spec._h ** (q / 2.0))


class TraceDiagonal(NamedTuple):
    value: float
    fixed_point_count: int


def trace_diagonal(spec: ClassView) -> TraceDiagonal:
    """Basis-diagonal trace, computed two ways that must agree exactly.

    Each diagonal term is indicator(symbol(u) == u) * w(u)/w(u), which is
    exactly 0.0 or 1.0 in floating point, so the summed trace equals the
    fixed-point count as an integer identity. On level classes both are the
    number of vertices on the levels the symbol fixes.
    """
    _require_hilbert(spec)
    if not isinstance(spec, OperatorSpec):
        count = spec._fixed_point_count
        return TraceDiagonal(float(count), count)
    fixed, lam = spec.profile.fixed_points, spec.weight.values
    value = float(np.sum(lam[fixed] / lam[fixed]))
    return TraceDiagonal(value, int(fixed.size))


def schatten_trend(partial_sums: Sequence[float]) -> str:
    """Three-way verdict from partial sums across a truncation ladder.

    The sums are nondecreasing in depth; a final increment below 1e-6
    (relative) reads as converging, one above 1e-2 as diverging. The
    infinite-tree limit is not finitely decidable, so anything in between
    stays inconclusive.
    """
    vals = [float(v) for v in partial_sums]
    if len(vals) < 2:
        return TREND_INCONCLUSIVE
    increment = vals[-1] - vals[-2]
    rel = increment / max(abs(vals[-1]), 1e-300)
    if rel <= _CONVERGE_REL_TOL:
        return TREND_CONVERGING
    if rel >= _DIVERGE_REL_FLOOR:
        return TREND_DIVERGING
    return TREND_INCONCLUSIVE
