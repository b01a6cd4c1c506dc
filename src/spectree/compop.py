"""The composition operator: f -> f o symbol on a weighted L^p truncation.

All suprema are maxima over the stored vertex set; every report entry names
its truncation depth so the finite/infinite gap stays visible.

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

from .lpspace import TreeFunction, _as_function, validate_exponent
from .selfmap import LevelClasses, MapProfile, SelfMap, analyze
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


class ClassView:
    """An operator's per-vertex quantities, read on classes: contiguous id
    ranges inside one level on which they are constant. The reductions
    below read only this view. A vertex operator is the case where class
    ``i`` is vertex ``i``. A subclass provides ``p``, ``profile`` (a ``MapProfile``
    or ``LevelClasses``: both derive ``injective``, ``max_multiplicity`` and
    ``surjective_on_truncation`` from ``preimage_count``, per class) and:

    - ``_h``: h(u) = w(preimage(u)) / w(u) on each class;
    - ``_h_first``: the first vertex of each class, or None;
    - ``_level_offsets``: the index of the first class of each level
      ``0..D``, then the class count;
    - ``_ratio`` and ``_ratio_first``: w(v) / w(symbol(v)) on each class of
      the domain, in id order, and the class's first vertex;
    - ``_max_image_depth``: the depth of the deepest image, -1 for an
      empty domain;
    - ``_source_pair(i)``: symbol(v), w(symbol(v)) and w(v) for the first
      vertex v of domain class ``i``;
    - ``_class_sizes``: the number of vertices in each class;
    - ``_preimage_sum(i)``: the sum of ``_image_terms`` of class ``i``'s first
      vertex over its preimage.

    A vertex operator sums in numpy's orders: preimage weights as
    ``np.bincount``, sums over the vertices (``_preimage_sum`` too) as
    pairwise ``np.sum``. Level classes sum exactly, rounded once: a one-level
    preimage of at most 2**53 vertices as one product, count times weight."""

    @cached_property
    def _h_tail(self) -> np.ndarray:
        """Entry k, for k = 0..D, is the largest h(u) over the vertices at
        depth >= k; every level holds a class, so each level's first class
        starts a reduceat segment."""
        m = np.maximum.reduceat(self._h, self._level_offsets[:-1])
        return _read_only(np.maximum.accumulate(m[::-1])[::-1])

    @property
    def _truncation_depth(self) -> int:
        return len(self._level_offsets) - 2

    def _vertex(self, i: int) -> int:
        """The first vertex of class ``i``."""
        return i if self._h_first is None else int(self._h_first[i])

    def _sum(self, stack: np.ndarray) -> np.ndarray:
        """Each row of a ``(k, classes)`` stack, summed over the vertices."""
        if self._h_first is None:
            return np.sum(stack, axis=-1)
        return _exact_sum(stack, self._class_sizes)


@dataclass(frozen=True, eq=False)
class OperatorSpec(ClassView):
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
    def profile(self) -> MapProfile:
        """The operator's one map profile; reports read it from here."""
        return analyze(self.symbol)

    @cached_property
    def _h(self) -> np.ndarray:
        h = preimage_weight(self)
        return _read_only(np.divide(h, self.weight.values, out=h))

    @cached_property
    def _ratio(self) -> np.ndarray:
        """w(v) / w(symbol(v)) for each v in the symbol's domain, in domain order."""
        dom, lam = self.symbol.domain_index, self.weight.values
        return _read_only(lam[dom] / lam[self.symbol.image[dom]])

    # the class view: every class is one vertex
    _h_first = None
    _level_offsets = property(lambda self: self.tree.level_start)
    _ratio_first = property(lambda self: self.symbol.domain)

    @cached_property
    def _max_image_depth(self) -> int:
        last = int(self.symbol.image.max())  # the largest image id is the deepest
        return self.tree.depth_of(last) if last >= 0 else -1

    def _source_pair(self, i: int) -> tuple[int, float, float]:
        v = int(self.symbol.domain[i])
        u = int(self.symbol.image[v])
        return u, self.weight.values[u], self.weight.values[v]

    _class_sizes = property(lambda self: np.ones(len(self.tree), dtype=np.int64))

    def _preimage_sum(self, u: int) -> float:
        lam = self.weight.values
        preimage = np.flatnonzero(self.symbol.image == u)
        terms = np.zeros(len(self.tree), dtype=np.float64)
        terms[preimage] = _image_terms(lam[u], lam[preimage], self.p)
        return self._sum(terms[None])[0]


@dataclass(frozen=True, eq=False)
class LevelClassSpec(ClassView):
    """The operator of a builtin symbol under a family weight on a generated
    b-ary tree, by level classes: the tree whose levels start at
    ``level_start``, the weight ``weights[n]`` at depth ``n`` and the
    symbol's ``classes``. It forms no per-vertex array: its sums run on
    run lengths. ``profile`` is ``classes``."""

    level_start: np.ndarray
    weights: np.ndarray
    classes: LevelClasses
    p: float  # as validated by the analysis spec

    profile = property(lambda self: self.classes)
    _h_first = property(lambda self: self.classes.first)
    _level_offsets = property(lambda self: self.classes.class_start)
    _ratio_first = property(lambda self: self.level_start[:self.classes.image_level.size])

    @cached_property
    def _h(self) -> np.ndarray:
        c, lam = self.classes, self.weights
        level = np.repeat(np.arange(lam.size), np.diff(c.class_start))
        # a one-level preimage sums to count times weight, rounded once (``take`` clips the D + 1
        # of an empty class); several levels (the root's under a lift) and counts past 2**53 loop
        sums = c.preimage_count * lam.take(c.source_lo, mode="clip")
        for i in np.flatnonzero((c.source_hi - c.source_lo > 1) | (c.preimage_count > 2 ** 53)):
            levels, reps = self._preimage_runs(i)
            sums[i] = _exact_sum(lam[levels][None], reps)[0]
        return _read_only(np.divide(sums, lam[level], out=sums))

    @cached_property
    def _ratio(self) -> np.ndarray:
        image_level = self.classes.image_level
        return _read_only(self.weights[:image_level.size] / self.weights[image_level])

    # the last domain level's image is the deepest
    _max_image_depth = property(lambda self: int(self.classes.image_level[-1]))

    @property
    def _fixed_point_count(self) -> int:  # a level mapped to itself is fixed vertex by vertex
        image_level = self.classes.image_level
        fixed = image_level == np.arange(image_level.size)
        return int(np.diff(self.level_start)[:image_level.size][fixed].sum())

    def _source_pair(self, i: int) -> tuple[int, float, float]:
        m = self.classes.image_level[i]  # the first vertex of level i goes to the first of level m
        return int(self.level_start[m]), self.weights[m], self.weights[i]

    def _preimage_runs(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The preimage of the first vertex of class ``i``, one id run from
        the first vertex of a level: its levels and its vertex count in each."""
        c, start = self.classes, self.level_start
        lo, hi = int(c.source_lo[i]), int(c.source_hi[i])
        ends = np.minimum(start[lo + 1:hi + 1], start[lo] + c.preimage_count[i])
        return np.arange(lo, hi), np.diff(ends, prepend=start[lo])

    @cached_property
    def _class_sizes(self) -> np.ndarray:
        return _read_only(np.diff(self.classes.first, append=self.level_start[-1]))

    def _preimage_sum(self, i: int) -> float:
        levels, reps = self._preimage_runs(i)
        level = np.searchsorted(self.classes.class_start, i, side="right") - 1
        return _exact_sum(_image_terms(self.weights[level], self.weights[levels], self.p)[None],
                          reps)[0]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _exact_sum(stack: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of ``counts[j] * row[j]`` for each row of a ``(k, runs)`` stack,
    exact and rounded once: each finite term is an integer over the row's
    common power-of-two denominator, and int true division rounds correctly.
    A row holding inf or nan sums those as floats (inf + -inf is nan); a
    finite sum past the float range is inf of its sign."""
    counts, sums = counts.tolist(), []
    for row in stack.tolist():
        terms = [(x, c) for x, c in zip(row, counts) if c]
        if special := [x for x, _ in terms if not math.isfinite(x)]:
            sums.append(sum(special))
            continue
        ratios = [(x.as_integer_ratio(), c) for x, c in terms]
        den = max([d for (_, d), _ in ratios], default=1)
        total = sum(n * c * (den // d) for (n, d), c in ratios)
        try:
            sums.append(total / den)
        except OverflowError:
            sums.append(math.inf if total > 0 else -math.inf)
    return np.array(sums, dtype=np.float64)


def _image_terms(lam_u: float, lam_preimage: np.ndarray, p: float) -> np.ndarray:
    """|C e_u|^p w at each preimage vertex, e_u the normalized indicator of u;
    the image is w(u)**(-1/p) on the preimage."""
    c = np.full(len(lam_preimage), lam_u ** (-1.0 / p), dtype=np.complex128)  # as basis_vector
    return np.abs(c) ** p * lam_preimage


class RatioSup(NamedTuple):
    value: float
    witness: int  # vertex attaining the supremum, -1 for an empty domain


class OperatorNorm(NamedTuple):
    value: float
    witness: int  # target vertex whose normalized indicator attains the norm


def apply(spec: OperatorSpec, f: TreeFunction) -> TreeFunction:
    """(C f)(v) = f(symbol(v)) on the symbol's domain, zero outside it; row
    by row on a ``(k, n)`` stack."""
    f = _as_function(spec.tree, f, stack=True)
    g = np.zeros(f.shape, dtype=np.complex128)
    dom = spec.symbol.domain_index
    g[..., dom] = f[..., spec.symbol.image[dom]]
    return g


def ratio_sup(spec: ClassView) -> RatioSup:
    """Largest weight(v) / weight(symbol(v)) over the symbol's domain.

    Finiteness of this supremum on the infinite tree is exactly boundedness
    of the operator for injective symbols; the witness vertex makes growth
    across truncation ladders auditable.
    """
    ratios = spec._ratio
    if ratios.size == 0:
        return RatioSup(0.0, -1)
    i = int(np.argmax(ratios == ratios.max()))  # numpy's argmax copies a read-only array
    return RatioSup(float(ratios[i]), int(spec._ratio_first[i]))


def preimage_weight(spec: OperatorSpec) -> np.ndarray:
    """Per-vertex total weight of the preimage: sum of weight(v) over
    symbol(v) = u. Zero where the preimage is empty."""
    dom = spec.symbol.domain_index
    return np.bincount(spec.symbol.image[dom], weights=spec.weight.values[dom],
                       minlength=len(spec.tree))


def preimage_ratio(spec: OperatorSpec) -> np.ndarray:
    """Per-vertex w(preimage(u)) / w(u), the diagonal of C*C at p = 2; formed
    once per operator and read-only."""
    return spec._h


def operator_norm(spec: ClassView) -> OperatorNorm:
    """Exact operator norm on the truncation: sup_u [w(preimage(u))/w(u)]^(1/p)."""
    r = spec._h
    i = int(np.argmax(r == r.max()))  # the first maximum, found on a 1-byte mask
    return OperatorNorm(float(r[i] ** (1.0 / spec.p)), spec._vertex(i))


@dataclass(frozen=True)
class IsometryVerdict:
    """On failure, ``witness_vertex`` is the vertex u the ``reason`` names:
    the first shared image (``not_injective``), the shallowest missed vertex
    (``not_surjective``) or symbol(v) for the first ratio-violating v
    (``ratio_deviation``). Its preimage,
    ``np.flatnonzero(symbol.image == witness_vertex)``, is then the
    colliding vertices, empty, or that v."""

    is_isometry: bool
    reason: str | None  # None | "not_injective" | "not_surjective" | "ratio_deviation"
    witness_vertex: int | None  # u whose normalized indicator is the unit witness
    witness_image_norm: float | None
    frontier_only_misses: bool


def isometry_check(spec: ClassView, ratio_tol: float = 1e-12) -> IsometryVerdict:
    """Isometry holds exactly when the symbol is a bijection of the stored
    vertex set and every weight ratio equals 1 (within ``ratio_tol``).

    On failure the verdict names a vertex u whose normalized indicator is a
    unit function with image norm other than 1: a missed vertex (image norm
    0), a shared image, or symbol(v) for a ratio-violating v. That image is
    carried by the preimage of u, so its norm is read from the preimage.
    ``frontier_only_misses`` flags the truncation artifact where a bijection
    of the infinite tree misses stored vertices only at the frontier.
    """
    profile, p = spec.profile, spec.p
    counts = profile.preimage_count
    # classes are in id order, so the first miss is the shallowest (argmax of a
    # fresh mask: numpy's argmin copies a read-only array such as counts)
    miss = None if profile.surjective_on_truncation else int(np.argmax(counts == 0))
    frontier_only = miss is not None and (
        int(np.searchsorted(spec._level_offsets, miss, side="right")) - 1 == spec._truncation_depth)

    def _failure(reason, u, total=0.0):
        # ``total`` is the image's terms summed: at their vertex positions, as
        # norm_p groups them, on a vertex operator; exactly on level classes
        return IsometryVerdict(False, reason, u, float(np.float64(total) ** (1.0 / p)), frontier_only)

    if not profile.injective:
        i = int(np.argmax(counts > 1))
        return _failure("not_injective", spec._vertex(i), spec._preimage_sum(i))
    if miss is not None:
        return _failure("not_surjective", spec._vertex(miss))  # empty preimage

    off = np.abs(spec._ratio - 1.0) > ratio_tol
    if off.any():
        u, lam_u, lam_v = spec._source_pair(int(np.argmax(off)))
        # a one-vertex preimage: among zeros, one term is its own pairwise sum
        return _failure("ratio_deviation", u, _image_terms(lam_u, np.array([lam_v]), p)[0])
    return IsometryVerdict(True, None, None, None, False)


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
    verdict: str  # VERDICT_COMPACT or VERDICT_NOT_COMPACT
    tail_slope: float | None
    frontier_cliff: bool
    max_image_depth: int


def compactness_profile(spec: ClassView, decay_ratio: float = 0.1) -> CompactnessProfile:
    """Classify the tail-supremum trend.

    ``compact-consistent`` requires the last entry to fall below
    ``decay_ratio`` times the first and the final third of the profile to
    show a net strict decrease (a sequence that merely plateaus at a small
    positive floor is not decaying). Profiles are step functions, so the
    decrease is assessed across the final third as a whole. When the symbol
    never reaches the frontier the tail past its deepest image is exactly
    zero; ``frontier_cliff`` flags verdicts that rest on that artifact.
    """
    D = spec._truncation_depth
    s = spec._h_tail
    max_image_depth = spec._max_image_depth  # structural, not read off s (h can underflow to 0)

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
        verdict=VERDICT_COMPACT if consistent else VERDICT_NOT_COMPACT,
        tail_slope=slope,
        frontier_cliff=cliff,
        max_image_depth=max_image_depth,
    )


def tail_defect(spec: ClassView, n: int, N: int) -> float:
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
    if n >= spec._truncation_depth:
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
