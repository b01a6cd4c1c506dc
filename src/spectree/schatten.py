"""Singular values and Schatten-class diagnostics on the p = 2 space.

In the orthonormal basis of normalized indicators the operator matrix has at
most one nonzero per row, so C*C is diagonal with entries
w(preimage(u)) / w(u). The singular values are therefore the square roots of
those diagonal entries, for injective and bounded-multiplicity symbols alike;
everything below is cross-checked against the dense-matrix oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .compop import OperatorSpec, preimage_ratio

TREND_CONVERGING = "converging"
TREND_DIVERGING = "diverging"
TREND_INCONCLUSIVE = "inconclusive"

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
    img = spec.symbol.image[dom]
    fixed = dom[img == dom]
    lam = spec.weight.values
    value = float(np.sum(lam[fixed] / lam[fixed]))
    return TraceDiagonal(value, int(fixed.size))


@dataclass(frozen=True)
class SpectralReport:
    singular_values: np.ndarray  # descending
    schatten_sums: Mapping[float, float]
    hs_norm: float
    trace_diagonal: float
    fixed_point_count: int
    source: str  # "analytic" | "oracle"

    def __post_init__(self):
        sv = np.asarray(self.singular_values, dtype=np.float64)
        if (sv < 0).any() or (np.diff(sv) > 0).any():
            raise ValueError("singular values must be nonnegative and descending")
        object.__setattr__(self, "singular_values", sv)


def spectral_report(spec: OperatorSpec, exponents: Sequence[float] = (1.0, 2.0)) -> SpectralReport:
    """Analytic spectral report; the oracle-sourced twin is assembled from the
    dense SVD by the reporting layer."""
    _require_hilbert(spec)
    sums = {float(q): schatten_sum(spec, q) for q in exponents}
    trace = trace_diagonal(spec)
    return SpectralReport(
        singular_values=singular_values_analytic(spec),
        schatten_sums=sums,
        hs_norm=hs_norm(spec),
        trace_diagonal=trace.value,
        fixed_point_count=trace.fixed_point_count,
        source="analytic",
    )


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
