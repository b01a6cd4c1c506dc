"""The composition operator: f -> f o symbol on a weighted L^p truncation.

All suprema are maxima over the stored vertex set; every report carries the
truncation depth so the finite/infinite gap stays visible.

The operator norm admits a closed form at truncation scale: rearranging

    ||C f||_p^p = sum_v |f(symbol(v))|^p w(v)
               = sum_u |f(u)|^p * w(preimage(u))

with w(preimage(u)) = sum of w(v) over symbol(v) = u shows that the norm is
sup_u [w(preimage(u)) / w(u)]^(1/p), attained by the normalized indicator of
the maximizing vertex. For injective symbols this reduces to the weight-ratio
supremum to the power 1/p; in general it sharpens the multiplicity bound
(M * ratio_sup)^(1/p). The dense-matrix oracle cross-checks it at p = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .lpspace import TreeFunction, basis_vector, norm_p, validate_exponent
from .selfmap import MapProfile, SelfMap, analyze
from .tree import Tree
from .weight import Weight

TREND_UNBOUNDED = "unbounded trend"
TREND_PLATEAU = "plateau"
TREND_INCONCLUSIVE = "inconclusive"

VERDICT_COMPACT = "compact-consistent"
VERDICT_NOT_COMPACT = "not-compact-consistent"

_FINAL_FRACTION = 1.0 / 3.0  # of the compactness profile, judged for a net decrease
_GROWTH_FACTOR = 1.5  # boundedness_trend's unbounded and plateau thresholds
_PLATEAU_REL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class OperatorSpec:
    """A composition operator instance: tree, weight, symbol and exponent."""

    tree: Tree
    weight: Weight
    symbol: SelfMap
    p: float

    def __post_init__(self):
        if self.weight.tree is not self.tree:
            raise ValueError("weight belongs to a different tree")
        if self.symbol.tree is not self.tree:
            raise ValueError("symbol belongs to a different tree")
        object.__setattr__(self, "p", validate_exponent(self.p))

    # per-operator quantities, each formed on first use; the arrays are read-only
    @cached_property
    def _profile(self) -> MapProfile:
        return analyze(self.symbol)

    @cached_property
    def _h(self) -> np.ndarray:
        return _read_only(preimage_weight(self) / self.weight.values)

    @cached_property
    def _ratio(self) -> np.ndarray:
        """w(v) / w(symbol(v)) for each v in the symbol's domain, in domain order."""
        dom, lam = self.symbol.domain, self.weight.values
        return _read_only(lam[dom] / lam[self.symbol.image[dom]])

    @cached_property
    def _h_tail(self) -> np.ndarray:
        """Entry k, for k = 0..D, is the largest h(u) over the vertices at
        depth >= k; h is nonnegative, so an empty level contributes 0."""
        m = np.zeros(self.tree.truncation_depth + 1, dtype=np.float64)
        np.maximum.at(m, self.tree.depth, self._h)
        return _read_only(np.maximum.accumulate(m[::-1])[::-1])


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class RatioSup(NamedTuple):
    value: float
    witness: int  # vertex attaining the supremum, -1 for an empty domain


class OperatorNorm(NamedTuple):
    value: float
    witness: int  # target vertex whose normalized indicator attains the norm


def apply(spec: OperatorSpec, f: TreeFunction) -> TreeFunction:
    """(C f)(v) = f(symbol(v)) on the symbol's domain, zero outside it."""
    f = np.asarray(f, dtype=np.complex128)
    if f.shape != (len(spec.tree),):
        raise ValueError(f"function needs one value per vertex ({len(spec.tree)}), got shape {f.shape}")
    g = np.zeros(len(spec.tree), dtype=np.complex128)
    dom = spec.symbol.domain
    g[dom] = f[spec.symbol.image[dom]]
    return g


def ratio_sup(spec: OperatorSpec) -> RatioSup:
    """Largest weight(v) / weight(symbol(v)) over the symbol's domain.

    Finiteness of this supremum on the infinite tree is exactly boundedness
    of the operator for injective symbols; the witness vertex makes growth
    across truncation ladders auditable.
    """
    ratios = spec._ratio
    if ratios.size == 0:
        return RatioSup(0.0, -1)
    i = int(np.argmax(ratios))
    return RatioSup(float(ratios[i]), int(spec.symbol.domain[i]))


def preimage_weight(spec: OperatorSpec) -> np.ndarray:
    """Per-vertex total weight of the preimage: sum of weight(v) over
    symbol(v) = u. Zero where the preimage is empty."""
    dom = spec.symbol.domain
    return np.bincount(spec.symbol.image[dom], weights=spec.weight.values[dom],
                       minlength=len(spec.tree))


def preimage_ratio(spec: OperatorSpec) -> np.ndarray:
    """Per-vertex w(preimage(u)) / w(u), the diagonal of C*C at p = 2; formed
    once per operator and read-only."""
    return spec._h


def operator_norm(spec: OperatorSpec) -> OperatorNorm:
    """Exact operator norm on the truncation: sup_u [w(preimage(u))/w(u)]^(1/p)."""
    r = spec._h
    u = int(np.argmax(r))
    return OperatorNorm(float(r[u] ** (1.0 / spec.p)), u)


@dataclass(frozen=True)
class BoundednessReport:
    """Norm facts with the structural data that explains them."""

    ratio_sup: float
    ratio_sup_witness: int
    operator_norm: float
    operator_norm_witness: int
    norm_lower_bound: float  # ratio_sup ** (1/p)
    norm_upper_bound: float  # (multiplicity * ratio_sup) ** (1/p)
    injective: bool
    multiplicity: int
    surjective: bool
    p: float
    truncation_depth: int
    vertex_count: int
    domain_size: int


def boundedness_report(spec: OperatorSpec) -> BoundednessReport:
    profile = spec._profile
    rs = ratio_sup(spec)
    nrm = operator_norm(spec)
    inv_p = 1.0 / spec.p
    return BoundednessReport(
        ratio_sup=rs.value,
        ratio_sup_witness=rs.witness,
        operator_norm=nrm.value,
        operator_norm_witness=nrm.witness,
        norm_lower_bound=rs.value ** inv_p,
        norm_upper_bound=(profile.max_multiplicity * rs.value) ** inv_p,
        injective=profile.injective,
        multiplicity=profile.max_multiplicity,
        surjective=profile.surjective_on_truncation,
        p=spec.p,
        truncation_depth=spec.tree.truncation_depth,
        vertex_count=len(spec.tree),
        domain_size=profile.domain_size,
    )


@dataclass(frozen=True)
class IsometryVerdict:
    is_isometry: bool
    reason: str | None  # None | "not_injective" | "not_surjective" | "ratio_deviation"
    collision: tuple[int, int] | None
    missed_vertex: int | None
    ratio_vertex: int | None
    witness_function: TreeFunction | None
    witness_image_norm: float | None
    frontier_only_misses: bool


def isometry_check(spec: OperatorSpec, ratio_tol: float = 1e-12) -> IsometryVerdict:
    """Isometry holds exactly when the symbol is a bijection of the stored
    vertex set and every weight ratio equals 1 (within ``ratio_tol``).

    On failure the verdict carries a unit function whose image norm deviates
    from 1: the indicator of a missed vertex (image norm 0), the indicator of
    a shared image, or the indicator of symbol(u) for a ratio-violating u.
    ``frontier_only_misses`` flags the truncation artifact where a bijection
    of the infinite tree misses stored vertices only at the frontier.
    """
    tree, profile = spec.tree, spec._profile
    counts = profile.preimage_count

    def _with_witness(reason, collision=None, missed=None, ratio_v=None, witness_at=None):
        wfun = basis_vector(spec.weight, witness_at, spec.p) if witness_at is not None else None
        wnorm = norm_p(apply(spec, wfun), spec.weight, spec.p) if wfun is not None else None
        missed_depths = tree.depth[counts == 0]
        frontier_only = bool(missed_depths.size and missed_depths.min() == tree.truncation_depth)
        return IsometryVerdict(False, reason, collision, missed, ratio_v,
                               wfun, wnorm, frontier_only)

    if not profile.injective:
        shared = int(np.flatnonzero(counts > 1)[0])
        pair = tuple(np.flatnonzero(spec.symbol.image == shared)[:2].tolist())
        return _with_witness("not_injective", collision=pair, witness_at=shared)
    if not profile.surjective_on_truncation:
        missed = int(np.flatnonzero(counts == 0)[0])
        return _with_witness("not_surjective", missed=missed, witness_at=missed)

    off = np.abs(spec._ratio - 1.0) > ratio_tol
    if off.any():
        v = int(spec.symbol.domain[int(np.flatnonzero(off)[0])])
        return _with_witness("ratio_deviation", ratio_v=v,
                             witness_at=int(spec.symbol.image[v]))
    return IsometryVerdict(True, None, None, None, None, None, None, False)


@dataclass(frozen=True)
class CompactnessProfile:
    """Tail suprema s[N] = max of h(u) = w(preimage(u)) / w(u) over the
    vertices u at depth >= N, for N = 0..D. Nonincreasing by construction;
    s[0] = ||C||^p. The verdict is a finite-depth diagnostic, not a proof:
    h vanishing at infinity, i.e. s decaying toward zero, is the compactness
    criterion on the infinite tree. ``max_image_depth`` is the depth of the
    deepest vertex with a nonempty preimage, -1 for an empty domain.
    """

    values: np.ndarray
    compact_consistent: bool
    verdict: str
    tail_slope: float | None
    frontier_cliff: bool
    max_image_depth: int


def compactness_profile(spec: OperatorSpec, decay_ratio: float = 0.1) -> CompactnessProfile:
    """Classify the tail-supremum trend.

    ``compact-consistent`` requires the last entry to fall below
    ``decay_ratio`` times the first and the final third of the profile to
    show a net strict decrease (a sequence that merely plateaus at a small
    positive floor is not decaying). Profiles are step functions, so the
    decrease is assessed across the final third as a whole. When the symbol
    never reaches the frontier the tail past its deepest image is exactly
    zero; ``frontier_cliff`` flags verdicts that rest on that artifact.
    """
    D = spec.tree.truncation_depth
    s = spec._h_tail
    # structural, not read off s: h can underflow to 0 at an image vertex
    max_image_depth = int(spec.tree.depth[spec._profile.preimage_count > 0].max(initial=-1))

    s0, sD = float(s[0]), float(s[-1])
    start = int(math.ceil(D * (1.0 - _FINAL_FRACTION)))
    if s0 == 0.0:
        consistent = True
    else:
        consistent = sD < decay_ratio * s0 and (sD == 0.0 or sD < float(s[start]))
    cliff = (0 <= max_image_depth < D and s0 > 0.0
             and float(s[max_image_depth]) >= decay_ratio * s0)

    tail = s[start:]
    pos = tail > 0.0
    slope = None
    if int(pos.sum()) >= 2:
        xs = np.arange(start, D + 1, dtype=np.float64)[pos]
        slope = float(np.polyfit(xs, np.log(tail[pos]), 1)[0])

    return CompactnessProfile(
        values=s,
        compact_consistent=consistent,
        verdict=VERDICT_COMPACT if consistent else VERDICT_NOT_COMPACT,
        tail_slope=slope,
        frontier_cliff=cliff,
        max_image_depth=max_image_depth,
    )


def tail_defect(spec: OperatorSpec, n: int, N: int) -> float:
    """Exact norm of C restricted to inputs vanishing up to depth n, i.e. of
    f -> C (f - project(f, n)).

    Only targets deeper than n contribute, so the value is
    sup over |u| > n of [w(preimage(u)) / w(u)]^(1/p) = s[n+1]^(1/p), with s
    the compactness profile. For every symbol and n > N it is therefore at
    most s[N]^(1/p), and it is nonincreasing in n. The pair (n, N) is
    validated against that regime.
    """
    n, N = int(n), int(N)
    if N < 0 or n <= N:
        raise ValueError(f"tail defect requires n > N >= 0, got n={n}, N={N}")
    if n >= spec.tree.truncation_depth:
        return 0.0
    return float(spec._h_tail[n + 1] ** (1.0 / spec.p))


def boundedness_trend(values: Sequence[float]) -> str:
    """Classify a ratio-supremum ladder across increasing truncation depths.

    Strict growth by a factor of at least 1.5 reads as an unbounded trend, a
    ladder flat to 1e-9 relative as a plateau, anything else as inconclusive.
    """
    vals = [float(v) for v in values]
    if len(vals) < 2:
        return TREND_INCONCLUSIVE
    first, last = vals[0], vals[-1]
    if all(b > a for a, b in zip(vals, vals[1:])) and last >= _GROWTH_FACTOR * first:
        return TREND_UNBOUNDED
    if abs(last - first) <= _PLATEAU_REL_TOL * max(abs(first), abs(last)):
        return TREND_PLATEAU
    return TREND_INCONCLUSIVE
