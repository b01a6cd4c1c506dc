"""Per-vertex weight sequences and the built-in weight families.

Weights must be strictly positive and finite: every quantity computed here
divides by a weight somewhere, so zeros are rejected at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DocumentError
from .tree import Tree, document_keys, document_real, table_values


@dataclass(frozen=True, eq=False)
class Weight:
    """Strictly positive weight per vertex, the measure of the function space."""

    tree: Tree
    values: np.ndarray
    family: str = "custom"  # constant | reciprocal_depth | geometric | custom
    params: Mapping[str, float] | None = None


def _validated(tree: Tree, values: np.ndarray, family: str,
               params: Mapping[str, float] | None) -> Weight:
    values = np.array(values, dtype=np.float64)
    if values.shape != (len(tree),):
        raise ValueError(f"weight needs one value per vertex ({len(tree)}), got shape {values.shape}")
    bad = ~np.isfinite(values) | (values <= 0.0)
    if bad.any():
        v = int(np.flatnonzero(bad)[0])
        raise DocumentError(
            f"weight at vertex '{tree.name_of(v)}' must be a finite positive real, got {float(values[v])!r}")
    values.setflags(write=False)
    return Weight(tree=tree, values=values, family=family, params=params)


def family_levels(family: str, params: Mapping[str, float] | None,
                  level_start: np.ndarray, name_of=str) -> np.ndarray:
    """The weight of ``family`` at each depth ``0..D`` of a tree whose levels
    start at ``level_start``, read-only. A value that is not a finite
    positive real is refused, naming the first vertex of its level by
    ``name_of`` (a generated tree names vertex ``v`` ``str(v)``)."""
    depths = np.arange(len(level_start) - 1.0)
    if family == "constant":
        values = np.full(depths.size, params["value"])
    elif family == "reciprocal_depth":
        values = 1.0 / (1.0 + depths)
    else:  # geometric; a power past the float range is inf, refused below
        with np.errstate(over="ignore"):
            values = params["ratio"] ** depths
    bad = ~np.isfinite(values) | (values <= 0.0)
    if bad.any():
        n = int(np.argmax(bad))
        raise DocumentError(f"weight at vertex '{name_of(int(level_start[n]))}' "
                            f"must be a finite positive real, got {float(values[n])!r}")
    values.setflags(write=False)
    return values


def _family_weight(tree: Tree, family: str, params: Mapping[str, float] | None) -> Weight:
    levels = family_levels(family, params, tree.level_start, tree.name_of)
    values = np.repeat(levels, np.diff(tree.level_start))
    values.setflags(write=False)
    return Weight(tree=tree, values=values, family=family, params=params)


def _positive(x: float, what: str) -> float:
    x = float(x)
    if not np.isfinite(x) or x <= 0.0:
        raise DocumentError(f"{what} must be a finite positive real, got {x!r}")
    return x


def constant_weight(tree: Tree, c: float) -> Weight:
    return _family_weight(tree, "constant", {"value": _positive(c, "constant weight")})


def reciprocal_depth_weight(tree: Tree) -> Weight:
    """weight(v) = 1 / (1 + depth(v)); decays to zero along any branch."""
    return _family_weight(tree, "reciprocal_depth", None)


def geometric_weight(tree: Tree, ratio: float) -> Weight:
    """weight(v) = ratio ** depth(v); summable tails for ratio < 1 on paths,
    growing weights for ratio > 1."""
    return _family_weight(tree, "geometric", {"ratio": _positive(ratio, "geometric ratio")})


def custom_weight(tree: Tree, values) -> Weight:
    return _validated(tree, values, "custom", None)


_FAMILY_PARAMS = {"constant": ("value",), "reciprocal_depth": (), "geometric": ("ratio",)}


def parse_family(document: Mapping) -> tuple[str, Mapping[str, float] | None]:
    """The family and the checked params of a ``{"family", "params"}``
    weight document. Keys outside the family's own are refused."""
    document_keys(document, ("family", "params"), "weight document")
    family = document["family"]
    params = {} if document.get("params") is None else document["params"]
    if not isinstance(params, Mapping):
        raise DocumentError('weight document field "params" must be an object')
    if not isinstance(family, str) or family not in _FAMILY_PARAMS:
        raise DocumentError(f"unknown weight family '{family}'")
    document_keys(params, _FAMILY_PARAMS[family], f"{family} weight params")
    if family == "reciprocal_depth":
        return family, None
    (name,) = _FAMILY_PARAMS[family]
    if name not in params:
        raise DocumentError(f"{family} weight needs params.{name}")
    value = document_real(params[name], f"{family} weight params.{name}")
    what = "constant weight" if family == "constant" else "geometric ratio"
    return family, {name: _positive(value, what)}


def load_weight(tree: Tree, document: Mapping) -> Weight:
    """Build a weight from a ``{"family", "params"}`` or ``{"weights": {...}}``
    document. Explicit weight maps must cover every vertex of the tree."""
    if not isinstance(document, Mapping):
        raise DocumentError("weight document must be an object")
    if "family" in document:
        return _family_weight(tree, *parse_family(document))
    if "weights" in document:
        document_keys(document, ("weights",), "weight document")
        raw = table_values(tree, document, "weight", "weights")
        if set(map(type, raw)) != {float}:  # floats, a JSON table's values, need no check
            for v, value in enumerate(raw):
                document_real(value, f"weight at vertex '{tree.name_of(v)}'")
        return _validated(tree, np.array(raw, dtype=np.float64), "custom", None)
    raise DocumentError('weight document needs a "family" or a "weights" field')


def dump_weight(weight: Weight) -> dict:
    """Serialize to the document format accepted by :func:`load_weight`."""
    if weight.family != "custom":
        doc: dict = {"family": weight.family}
        if weight.params:
            doc["params"] = dict(weight.params)
        return doc
    return {"weights": dict(zip(weight.tree.vertex_names(), weight.values.tolist()))}


def bounds(weight: Weight) -> tuple[float, float]:
    """(min, max) of the weight over the truncation; both are attained."""
    return float(weight.values.min()), float(weight.values.max())
