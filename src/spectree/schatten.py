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

from .compop import TREND_INCONCLUSIVE, OperatorSpec, preimage_ratio

TREND_CONVERGING = "converging"
TREND_DIVERGING = "diverging"

_CONVERGE_REL_TOL = 1e-6  # schatten_trend's relative final increments
_DIVERGE_REL_FLOOR = 1e-2


def _require_hilbert(spec: OperatorSpec) -> None:
    if spec.p != 2.0:
        raise ValueError(f"Schatten-side quantities live on the p = 2 Hilbert space, got p = {spec.p}")


def singular_values_analytic(spec: OperatorSpec) -> np.ndarray:
    """All singular values, sqrt(w(preimage(u)) / w(u)) for each vertex u,
    descending; targets nobody reaches contribute zeros."""
    _require_hilbert(spec)
    return np.sort(np.sqrt(preimage_ratio(spec)))[::-1]


def hs_norm(spec: OperatorSpec) -> float:
    """Hilbert-Schmidt norm: [sum_u w(preimage(u)) / w(u)] ** (1/2)."""
    _require_hilbert(spec)
    return float(np.sqrt(preimage_ratio(spec).sum()))


def schatten_sum(spec: OperatorSpec, q: float) -> float:
    """Partial Schatten sum sum_u [w(preimage(u)) / w(u)]^(q/2) over the
    truncation. Coincides with the sum of the q-th powers of the singular
    values because the diagonal entries are the squared singular values."""
    _require_hilbert(spec)
    q = float(q)
    if not q >= 1.0:
        raise ValueError(f"Schatten exponent must satisfy q >= 1, got {q!r}")
    # empty preimages contribute 0 ** (q/2) == 0; summing the full array keeps
    # the q = 2 case the same summation as the squared Hilbert-Schmidt norm
    return float(np.sum(preimage_ratio(spec) ** (q / 2.0)))


class TraceDiagonal(NamedTuple):
    value: float
    fixed_point_count: int


def trace_diagonal(spec: OperatorSpec) -> TraceDiagonal:
    """Basis-diagonal trace, computed two ways that must agree exactly.

    Each diagonal term is indicator(symbol(u) == u) * w(u)/w(u), which is
    exactly 0.0 or 1.0 in floating point, so the summed trace equals the
    fixed-point count as an integer identity.
    """
    _require_hilbert(spec)
    dom = spec.symbol.domain
    img = spec.symbol.image[spec.symbol.domain_index]
    fixed = dom[img == dom]
    lam = spec.weight.values
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
