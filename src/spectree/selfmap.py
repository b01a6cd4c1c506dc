"""Self-maps of the stored vertex set (the symbols of composition operators).

A symbol is total on the truncation except for the depth-squaring map, whose
images would leave the frontier: vertices without an admissible image carry
the sentinel ``-1`` and are excluded from every analyzed quantity rather than
padded with made-up values.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Mapping, NamedTuple

import numpy as np

from .errors import DocumentError
from .tree import VERTEX_DTYPE, Tree, document_int, document_keys, table_values
from .weight import Weight


@dataclass(frozen=True, eq=False)
class SelfMap:
    """Vertex-to-vertex map. ``image[v] == -1`` marks an excluded vertex."""

    tree: Tree
    image: np.ndarray
    label: str = "custom"
    params: Mapping[str, int] | None = None

    def __post_init__(self):
        image = np.asarray(self.image)
        n = len(self.tree)
        if image.shape != (n,):
            raise ValueError(f"self-map needs one image slot per vertex ({n}), got shape {image.shape}")
        if not (image.min() >= -1 and image.max() < n):
            v = int(np.argmax((image < -1) | (image >= n)))
            raise DocumentError(
                f"map sends vertex '{self.tree.name_of(v)}' outside the stored vertex set")
        image = image.astype(VERTEX_DTYPE)  # in range, so no id wraps; a copy, the caller's stays writable
        image.setflags(write=False)
        object.__setattr__(self, "image", image)
        defined = image >= 0
        dom = (np.arange(n, dtype=VERTEX_DTYPE) if defined.all()
               else np.flatnonzero(defined).astype(VERTEX_DTYPE))
        dom.setflags(write=False)
        object.__setattr__(self, "_domain", dom)

    @property
    def domain(self) -> np.ndarray:
        """Vertices with a defined image, ascending; read-only."""
        return self._domain

    @property
    def is_total(self) -> bool:
        return self._domain.size == len(self.tree)

    @property
    def domain_index(self) -> slice | np.ndarray:
        """Selects a per-vertex array's values on the domain, in domain order:
        a full slice for a total symbol, else ``domain``. numpy casts an int32
        index array to intp on every gather; a slice costs nothing."""
        return slice(None) if self.is_total else self._domain


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


def analyze(symbol: SelfMap) -> MapProfile:
    dom = symbol.domain
    img = symbol.image[symbol.domain_index]
    counts = np.bincount(img, minlength=len(symbol.tree)).astype(VERTEX_DTYPE)
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
    )


class LevelClasses(NamedTuple):
    """Structural facts about a builtin symbol on a generated b-ary tree, by
    level classes: contiguous id ranges inside one level whose vertices have
    the same number of preimages. The preimage of the first vertex of a
    class is the ``preimage_count`` ids from the first vertex of level
    ``source_lo``: levels ``source_lo`` to ``source_hi - 1``, the last of
    them possibly in part (the root's under a lift fills several levels).
    All arrays are int64.
    """

    image_level: np.ndarray  # the level each domain level maps to; the domain is levels 0..len - 1
    class_start: np.ndarray  # index of the first class of each level 0..D, then the class count
    first: np.ndarray  # first vertex of each class
    preimage_count: np.ndarray  # preimage count of each vertex of the class
    source_lo: np.ndarray  # the first level of those preimages
    source_hi: np.ndarray  # one past their last level; source_lo when there are none

    @property
    def max_multiplicity(self) -> int:
        return int(self.preimage_count.max())

    @property
    def injective(self) -> bool:
        return self.max_multiplicity <= 1

    @property
    def surjective_on_truncation(self) -> bool:
        return bool(self.preimage_count.min() > 0)


def level_classes(lift: int | None, level_start: np.ndarray) -> LevelClasses:
    """The builtin of ``lift`` (see :func:`parse_builtin`) on the generated
    b-ary tree whose levels start at ``level_start``, by level classes."""
    start, depth = level_start, len(level_start) - 2
    width, levels = np.diff(start), np.arange(depth + 1)
    if lift is None:
        # index rule: the i-th vertex of level m goes to the i-th of level m*m, so the
        # first width[m] vertices of level m*m have one preimage each and the rest none
        image_level = np.arange(math.isqrt(depth) + 1) ** 2
        imaged = np.zeros(depth + 1, dtype=np.int64)
        imaged[image_level] = width[:image_level.size]
        split = (imaged > 0) & (imaged < width)  # two classes: the imaged vertices, the rest
        class_start = np.append(0, np.cumsum(1 + split))
        first = np.repeat(start[:-1], 1 + split)
        first[class_start[:-1][split] + 1] += imaged[split]
        count, source = np.zeros((2, first.size), dtype=np.int64)
        count[class_start[image_level]] = 1
        source[class_start[image_level]] = np.arange(image_level.size)
        return LevelClasses(image_level, class_start, first, count, source, source + count)
    # ancestor rule: level n's preimage, the range of levels image_level sends to n, splits
    # evenly among level n's vertices; lifts past the depth are alike
    image_level = np.maximum(levels - min(lift, depth), 0)
    lo, hi = (np.searchsorted(image_level, levels, side) for side in ("left", "right"))
    return LevelClasses(image_level, np.arange(depth + 2), start[:-1],
                        (start[hi] - start[lo]) // width, lo, hi)


def _ancestor_map(tree: Tree, lift: int, label: str) -> SelfMap:
    """The ancestor rule: each vertex to its ancestor ``lift`` levels up, clamped at
    the root; ``params`` records a lift that the builtin ``label`` reads from its document."""
    if not hasattr(lift, "__index__"):  # numpy integers pass, as they index
        raise ValueError(f"level shift must be an integer, got {lift!r}")
    if (lift := operator.index(lift)) < 0:
        raise ValueError("level shift must be >= 0")
    image = np.arange(len(tree), dtype=VERTEX_DTYPE)
    # after truncation_depth steps every vertex has reached the root; the
    # power of the parent map is formed by squaring, in log2(depth) passes
    power, e = np.maximum(tree.parent, 0), min(lift, tree.truncation_depth)
    while e:
        if e & 1:
            image = power[image]
        power, e = power[power], e >> 1
    key = _BUILTINS[label]
    return SelfMap(tree, image, label=label, params={key: lift} if isinstance(key, str) else None)


def identity_map(tree: Tree) -> SelfMap:
    return _ancestor_map(tree, 0, "identity")


def parent_map(tree: Tree) -> SelfMap:
    """Each vertex to its parent; the root stays put."""
    return _ancestor_map(tree, 1, "parent")


def level_shift_map(tree: Tree, k: int) -> SelfMap:
    """Each vertex to its ancestor ``k`` levels up, clamped at the root."""
    return _ancestor_map(tree, k, "level_shift")


def depth_square_map(tree: Tree) -> SelfMap:
    """Injective symbol sending the i-th vertex at level n to the i-th vertex
    at level n*n: the index rule.

    Distinct levels go to distinct levels and indices are preserved inside a
    level, so the map is injective whenever level n*n is at least as wide as
    level n. Only the sub-truncation of depth isqrt(D) is in the domain:
    deeper vertices would need images beyond the frontier and are excluded.
    """
    eff = math.isqrt(tree.truncation_depth)
    start = tree.level_start
    width = np.diff(start)
    image = np.full(len(tree), -1, dtype=VERTEX_DTYPE)
    for n in range(eff + 1):
        if width[n * n] < width[n]:
            raise DocumentError(
                f"level {n * n} has {width[n * n]} vertices but level {n} has {width[n]}; "
                "the index-preserving construction needs the image level to be at least as wide")
        image[start[n]:start[n + 1]] = np.arange(start[n * n], start[n * n] + width[n])
    return SelfMap(tree, image, label="depth_square")


# each builtin's ancestor rule lift, or the param that gives it; None for the index rule
_BUILTINS = {"identity": 0, "parent": 1, "level_shift": "k", "depth_square": None}


def parse_builtin(document: Mapping) -> tuple[str, int | None]:
    """The name of a ``{"builtin": name, "params": {...}}`` map document and its
    lift: the levels its ancestor rule lifts a vertex by, None for the index
    rule of ``depth_square``. Keys outside the builtin's own are refused."""
    document_keys(document, ("builtin", "params"), "map document")
    name = document["builtin"]
    params = {} if document.get("params") is None else document["params"]
    if not isinstance(params, Mapping):
        raise DocumentError('map document field "params" must be an object')
    if not isinstance(name, str) or name not in _BUILTINS:
        raise DocumentError(f"unknown builtin map '{name}'")
    lift = _BUILTINS[name]
    keys = (lift,) if isinstance(lift, str) else ()
    document_keys(params, keys, f"{name} params")
    if keys and lift not in params:
        raise DocumentError(f"{name} needs params.{lift}")
    return name, document_int(params[lift], f"{name} params.{lift}") if keys else lift


def load_map(tree: Tree, document: Mapping) -> SelfMap:
    """Build a symbol from ``{"builtin": name, "params": {...}}`` or an
    explicit total ``{"map": {vertex-id: vertex-id}}`` document."""
    if not isinstance(document, Mapping):
        raise DocumentError("map document must be an object")
    if "builtin" in document:
        name, lift = parse_builtin(document)
        return depth_square_map(tree) if lift is None else _ancestor_map(tree, lift, name)
    if "map" in document:
        document_keys(document, ("map",), "map document")
        targets = table_values(tree, document, "map", "map")
        idx = {name: v for v, name in enumerate(tree.vertex_names())}
        image = np.array([idx.get(t, -1) if isinstance(t, str) else -1 for t in targets],
                         dtype=VERTEX_DTYPE)
        if (image < 0).any():
            v = int(np.flatnonzero(image < 0)[0])
            raise DocumentError(
                f"map sends vertex '{tree.name_of(v)}' to unknown vertex '{targets[v]}'")
        return SelfMap(tree, image, label="custom")
    raise DocumentError('map document needs a "builtin" or a "map" field')


def dump_map(symbol: SelfMap) -> dict:
    """Serialize to the document format accepted by :func:`load_map`."""
    if symbol.label in _BUILTINS:  # params hold a level_shift's lift
        params = {key: int(value) for key, value in (symbol.params or {}).items()}
        return {"builtin": symbol.label} | ({"params": params} if params else {})
    if not symbol.is_total:
        raise ValueError("only builtin symbols may have a partial domain")
    return {"map": _MapTable(symbol.image, *_name_columns(symbol.tree))}


def _name_columns(tree: Tree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ids of ``tree`` in name order, then its names and their text in ``json.dumps`` by id."""
    names = np.array(tree.vertex_names(), dtype=object)
    column = np.fromiter(map(encode_basestring_ascii, names), dtype=object, count=len(names))
    return tree.name_order, names, column


class _MapTable(dict):
    """The read-only table of the total symbol ``image``, rows in the name
    ``order`` (writers sort the keys, and sorted input sorts fastest).
    ``column`` holds each of ``names`` as ``json.dumps`` writes it, so the
    rows are written without encoding a name again; all three may be those
    of a tree that this one is an id prefix of."""

    def __init__(self, image: np.ndarray, order: np.ndarray, names: np.ndarray,
                 column: np.ndarray):
        self.ids = order = order[order < len(image)]
        self.targets, self.column = image[order], column
        super().__init__(zip(names[order].tolist(), names[self.targets].tolist()))

    def _read_only(self, *args, **kwargs):
        raise TypeError("a map table is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):  # a copy, which may be edited, is a plain dict
        return dict, (dict(self),)


def _weight_orders(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vertices heaviest and lightest first, ties by id; an id prefix's are ``order[order < n]``."""
    return np.argsort(-values, kind="stable"), np.argsort(values, kind="stable")


# when the heaviest weights ls and the lightest lt of a pair are admissible
_ADMISSIBLE = {"adversary_unbounded": lambda ls, lt: (lt * lt < ls) & (lt < ls),
               "adversary_vanishing": lambda ls, lt: (lt < ls * ls) & (lt < ls)}


def _swap_prefix(tree: Tree, weight: Weight, orders, label: str) -> SelfMap | None:
    # swap the i-th heaviest and i-th lightest vertex (ties by id) for each i
    # before the first inadmissible pair. Admissible pairs have lt < ls, so
    # their vertices are all distinct and the map is a permutation; the last
    # pair (lightest, heaviest) never is, so argmin finds a False.
    lam, (heavy, light) = weight.values, orders
    with np.errstate(over="ignore"):  # a square past the float range is inf and compares right
        k = int(np.argmin(_ADMISSIBLE[label](lam[heavy], lam[light])))
    if k == 0:
        return None
    image = np.arange(len(tree), dtype=VERTEX_DTYPE)
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
    return _swap_prefix(tree, weight, _weight_orders(weight.values), "adversary_unbounded")


def adversary_vanishing(tree: Tree, weight: Weight) -> SelfMap | None:
    """Injective symbol witnessing a weight not bounded away from zero, dual
    to :func:`adversary_unbounded`: it swaps the i-th heaviest with the i-th
    lightest, up to the first inadmissible pair, where light u and heavy v
    are admissible when weight(u) < weight(v)**2 and weight(u) < weight(v),
    so each ratio weight(v)/weight(u) exceeds 1/weight(v). Returns None when
    no such pair exists.
    """
    return _swap_prefix(tree, weight, _weight_orders(weight.values), "adversary_vanishing")
