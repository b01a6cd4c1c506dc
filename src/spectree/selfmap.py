"""Self-maps of the stored vertex set (the symbols of composition operators).

A symbol is total on the truncation except for the depth-squaring map, whose
images would leave the frontier: vertices without an admissible image carry
the sentinel ``-1`` and are excluded from every analyzed quantity rather than
padded with made-up values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DocumentError
from .tree import Tree, document_int, table_values
from .weight import Weight

_BUILTIN_LABELS = ("identity", "parent", "level_shift", "depth_square")


@dataclass(frozen=True, eq=False)
class SelfMap:
    """Vertex-to-vertex map. ``image[v] == -1`` marks an excluded vertex."""

    tree: Tree
    image: np.ndarray
    label: str = "custom"
    params: Mapping[str, int] | None = None

    def __post_init__(self):
        image = np.array(self.image, dtype=np.int64)
        n = len(self.tree)
        if image.shape != (n,):
            raise ValueError(f"self-map needs one image slot per vertex ({n}), got shape {image.shape}")
        bad = (image < -1) | (image >= n)
        if bad.any():
            v = int(np.flatnonzero(bad)[0])
            raise DocumentError(
                f"map sends vertex '{self.tree.name_of(v)}' outside the stored vertex set")
        image.setflags(write=False)
        object.__setattr__(self, "image", image)
        dom = np.flatnonzero(image >= 0)
        dom.setflags(write=False)
        object.__setattr__(self, "_domain", dom)

    @property
    def domain(self) -> np.ndarray:
        """Vertices with a defined image, ascending."""
        return self._domain

    @property
    def is_total(self) -> bool:
        return self._domain.size == len(self.tree)


@dataclass(frozen=True, eq=False)
class MapProfile:
    """Structural facts about a symbol, by full enumeration.

    ``preimage_count[u]`` is the number of domain vertices the symbol sends
    to ``u``; ``fixed_points`` holds the vertices with ``symbol(v) == v``,
    ascending. Both arrays are read-only.
    """

    injective: bool
    max_multiplicity: int
    surjective_on_truncation: bool
    fixed_points: np.ndarray
    preimage_count: np.ndarray
    domain_size: int


def analyze(symbol: SelfMap) -> MapProfile:
    dom = symbol.domain
    img = symbol.image[dom]
    counts = np.bincount(img, minlength=len(symbol.tree))
    fixed = dom[img == dom]
    counts.setflags(write=False)
    fixed.setflags(write=False)
    max_mult = int(counts.max())
    return MapProfile(
        injective=max_mult <= 1,
        max_multiplicity=max_mult,
        surjective_on_truncation=bool((counts > 0).all()),
        fixed_points=fixed,
        preimage_count=counts,
        domain_size=int(dom.size),
    )


def identity_map(tree: Tree) -> SelfMap:
    return SelfMap(tree, np.arange(len(tree), dtype=np.int64), label="identity")


def parent_map(tree: Tree) -> SelfMap:
    """Each vertex to its parent; the root stays put."""
    image = tree.parent.copy()
    image[0] = 0
    return SelfMap(tree, image, label="parent")


def level_shift_map(tree: Tree, k: int) -> SelfMap:
    """Each vertex to its ancestor ``k`` levels up, clamped at the root."""
    k = int(k)
    if k < 0:
        raise ValueError("level shift must be >= 0")
    image = np.arange(len(tree), dtype=np.int64)
    # after truncation_depth steps every vertex has reached the root
    for _ in range(min(k, tree.truncation_depth)):
        up = tree.parent[image]
        image = np.where(up >= 0, up, image)
    return SelfMap(tree, image, label="level_shift", params={"k": k})


def depth_square_map(tree: Tree) -> SelfMap:
    """Injective symbol sending the i-th vertex at level n to the i-th vertex
    at level n*n.

    Distinct levels go to distinct levels and indices are preserved inside a
    level, so the map is injective whenever level n*n is at least as wide as
    level n. Only the sub-truncation of depth isqrt(D) is in the domain:
    deeper vertices would need images beyond the frontier and are excluded.
    """
    eff = math.isqrt(tree.truncation_depth)
    start = tree.level_start
    width = np.diff(start)
    image = np.full(len(tree), -1, dtype=np.int64)
    for n in range(eff + 1):
        if width[n * n] < width[n]:
            raise DocumentError(
                f"level {n * n} has {width[n * n]} vertices but level {n} has {width[n]}; "
                "the index-preserving construction needs the image level to be at least as wide")
        image[start[n]:start[n + 1]] = np.arange(start[n * n], start[n * n] + width[n])
    return SelfMap(tree, image, label="depth_square",
                   params={"effective_domain_depth": eff})


def load_map(tree: Tree, document: Mapping) -> SelfMap:
    """Build a symbol from ``{"builtin": name, "params": {...}}`` or an
    explicit total ``{"map": {vertex-id: vertex-id}}`` document."""
    if not isinstance(document, Mapping):
        raise DocumentError("map document must be an object")
    if "builtin" in document:
        name = document["builtin"]
        params = document.get("params") or {}
        if not isinstance(params, Mapping):
            raise DocumentError('map document field "params" must be an object')
        if name == "identity":
            return identity_map(tree)
        if name == "parent":
            return parent_map(tree)
        if name == "level_shift":
            if "k" not in params:
                raise DocumentError("level_shift needs params.k")
            return level_shift_map(tree, document_int(params["k"], "level_shift params.k"))
        if name == "depth_square":
            return depth_square_map(tree)
        raise DocumentError(f"unknown builtin map '{name}'")
    if "map" in document:
        targets = table_values(tree, document, "map", "map")
        idx = {name: v for v, name in enumerate(tree.vertex_names())}
        image = np.array([idx.get(t, -1) if isinstance(t, str) else -1 for t in targets],
                         dtype=np.int64)
        if (image < 0).any():
            v = int(np.flatnonzero(image < 0)[0])
            raise DocumentError(
                f"map sends vertex '{tree.name_of(v)}' to unknown vertex '{targets[v]}'")
        return SelfMap(tree, image, label="custom")
    raise DocumentError('map document needs a "builtin" or a "map" field')


def dump_map(symbol: SelfMap) -> dict:
    """Serialize to the document format accepted by :func:`load_map`."""
    if symbol.label in _BUILTIN_LABELS:
        doc: dict = {"builtin": symbol.label}
        if symbol.label == "level_shift":
            doc["params"] = {"k": int(symbol.params["k"])}
        return doc
    if not symbol.is_total:
        raise ValueError("only builtin symbols may have a partial domain")
    # rows in name order: writers sort the keys, and sorted input sorts fastest
    order = symbol.tree.name_order
    column = np.array(symbol.tree.vertex_names(), dtype=object)
    return {"map": dict(zip(column[order].tolist(), column[symbol.image[order]].tolist()))}


def _swap_prefix(tree: Tree, weight: Weight, admissible, label: str) -> SelfMap | None:
    # swap the i-th heaviest and i-th lightest vertex (ties by id) for each i
    # before the first inadmissible pair. Admissible pairs have lt < ls, so
    # their vertices are all distinct and the map is a permutation; the last
    # pair (lightest, heaviest) never is, so argmin finds a False.
    lam = weight.values
    heavy, light = np.argsort(-lam, kind="stable"), np.argsort(lam, kind="stable")
    with np.errstate(over="ignore"):  # a square past the float range is inf and compares right
        k = int(np.argmin(admissible(lam[heavy], lam[light])))
    if k == 0:
        return None
    image = np.arange(len(tree), dtype=np.int64)
    image[heavy[:k]] = light[:k]
    image[light[:k]] = heavy[:k]
    return SelfMap(tree, image, label=label, params={"pair_count": k})


def adversary_unbounded(tree: Tree, weight: Weight) -> SelfMap | None:
    """Injective symbol witnessing an unbounded weight: it swaps the i-th
    heaviest with the i-th lightest, up to the first inadmissible pair, where
    heavy s and light t are admissible when weight(s) > weight(t)**2 and
    weight(s) > weight(t). Returns None when no pair shows genuine spread
    (then every candidate ratio is at most 1, no better than the identity).
    """
    return _swap_prefix(tree, weight, lambda ls, lt: (lt * lt < ls) & (lt < ls),
                        "adversary_unbounded")


def adversary_vanishing(tree: Tree, weight: Weight) -> SelfMap | None:
    """Injective symbol witnessing a weight not bounded away from zero, dual
    to :func:`adversary_unbounded`: it swaps the i-th heaviest with the i-th
    lightest, up to the first inadmissible pair, where light u and heavy v
    are admissible when weight(u) < weight(v)**2 and weight(u) < weight(v),
    so each ratio weight(v)/weight(u) exceeds 1/weight(v). Returns None when
    no such pair exists.
    """
    return _swap_prefix(tree, weight, lambda ls, lt: (lt < ls * ls) & (lt < ls),
                        "adversary_vanishing")
