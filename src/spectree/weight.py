"""Per-vertex weight sequences and the built-in weight families.

Weights must be strictly positive and finite: every quantity computed here
divides by a weight somewhere, so zeros are rejected at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DocumentError
from .tree import Tree, document_real, table_values


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


def _per_level(tree: Tree, f) -> np.ndarray:
    """``f`` of each vertex's depth, evaluated once per level ``0..D``."""
    return np.repeat(f(np.arange(tree.truncation_depth + 1.0)), np.diff(tree.level_start))


def constant_weight(tree: Tree, c: float) -> Weight:
    c = float(c)
    if not np.isfinite(c) or c <= 0.0:
        raise DocumentError(f"constant weight must be a finite positive real, got {c!r}")
    return _validated(tree, np.full(len(tree), c), "constant", {"value": c})


def reciprocal_depth_weight(tree: Tree) -> Weight:
    """weight(v) = 1 / (1 + depth(v)); decays to zero along any branch."""
    return _validated(tree, _per_level(tree, lambda d: 1.0 / (1.0 + d)), "reciprocal_depth", None)


def geometric_weight(tree: Tree, ratio: float) -> Weight:
    """weight(v) = ratio ** depth(v); summable tails for ratio < 1 on paths,
    growing weights for ratio > 1."""
    ratio = float(ratio)
    if not np.isfinite(ratio) or ratio <= 0.0:
        raise DocumentError(f"geometric ratio must be a finite positive real, got {ratio!r}")
    with np.errstate(over="ignore"):  # a power past the float range is inf, refused below
        values = _per_level(tree, lambda d: ratio ** d)
    return _validated(tree, values, "geometric", {"ratio": ratio})


def custom_weight(tree: Tree, values) -> Weight:
    return _validated(tree, values, "custom", None)


def load_weight(tree: Tree, document: Mapping) -> Weight:
    """Build a weight from a ``{"family", "params"}`` or ``{"weights": {...}}``
    document. Explicit weight maps must cover every vertex of the tree."""
    if not isinstance(document, Mapping):
        raise DocumentError("weight document must be an object")
    if "family" in document:
        family = document["family"]
        params = {} if document.get("params") is None else document["params"]
        if not isinstance(params, Mapping):
            raise DocumentError('weight document field "params" must be an object')
        if family == "constant":
            if "value" not in params:
                raise DocumentError('constant weight needs params.value')
            return constant_weight(tree, document_real(params["value"], "constant weight params.value"))
        if family == "reciprocal_depth":
            return reciprocal_depth_weight(tree)
        if family == "geometric":
            if "ratio" not in params:
                raise DocumentError('geometric weight needs params.ratio')
            return geometric_weight(tree, document_real(params["ratio"], "geometric weight params.ratio"))
        raise DocumentError(f"unknown weight family '{family}'")
    if "weights" in document:
        raw = table_values(tree, document, "weight", "weights")
        for v, value in enumerate(raw):
            if type(value) is not float:  # floats, most of a JSON table, need no check
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
