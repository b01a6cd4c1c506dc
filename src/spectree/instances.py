"""Seeded generators for random and structured operator instances.

Shared by the verification suites, the test suite and the demo scripts;
everything is a pure function of the supplied generator, so runs reproduce
bit for bit from a seed.
"""

from __future__ import annotations

import numpy as np

from .compop import OperatorSpec
from .lpspace import norm_p
from .selfmap import SelfMap, depth_square_map, identity_map, level_shift_map, parent_map
from .tree import VERTEX_DTYPE, Tree, bary_vertex_count, build_bary
from .weight import (Weight, constant_weight, custom_weight, geometric_weight,
                     reciprocal_depth_weight)

_P_CHOICES = (1.0, 1.5, 2.0, 3.0)
_MAX_BRANCHING = 3  # random trees are b-ary of depth 2.._MAX_DEPTH
_MAX_DEPTH = 6
_WEIGHT_LOW, _WEIGHT_HIGH = 0.01, 100.0  # random weights are uniform on this interval
_SHAPES = tuple((b, d, bary_vertex_count(b, d))  # (branching, depth, vertex count)
                for b in range(1, _MAX_BRANCHING + 1) for d in range(2, _MAX_DEPTH + 1))


def random_bary_tree(rng: np.random.Generator, max_vertices: int = 600,
                     min_vertices: int = 1) -> Tree:
    combos = [(b, d) for b, d, count in _SHAPES if min_vertices <= count <= max_vertices]
    if not combos:
        raise ValueError(f"no b-ary tree fits [{min_vertices}, {max_vertices}] vertices")
    b, d = combos[int(rng.integers(len(combos)))]
    return build_bary(b, d)


def random_weight(rng: np.random.Generator, tree: Tree) -> Weight:
    return custom_weight(tree, rng.uniform(_WEIGHT_LOW, _WEIGHT_HIGH, len(tree)))


def random_permutation_map(rng: np.random.Generator, tree: Tree) -> SelfMap:
    return SelfMap(tree, rng.permutation(len(tree)), label="custom")


def random_nonidentity_permutation_map(rng: np.random.Generator, tree: Tree) -> SelfMap:
    image = rng.permutation(len(tree))
    if (image == np.arange(len(tree))).all():
        image = np.roll(image, 1)
    return SelfMap(tree, image, label="custom")


def random_bounded_multiplicity_map(rng: np.random.Generator, tree: Tree,
                                    multiplicity: int) -> SelfMap:
    """Total symbol whose largest preimage has exactly ``multiplicity``
    elements and no preimage exceeds it."""
    n = len(tree)
    if not 1 <= multiplicity < n:
        raise ValueError(f"multiplicity must be in [1, {n - 1}], got {multiplicity}")
    sources = rng.permutation(n)
    targets = rng.permutation(n)
    # the first ``multiplicity`` sources share targets[0]; every other source
    # gets a target of its own
    image = np.empty(n, dtype=VERTEX_DTYPE)
    image[sources[:multiplicity]] = targets[0]
    image[sources[multiplicity:]] = targets[1:n - multiplicity + 1]
    return SelfMap(tree, image, label="custom")


def random_injective_spec(rng: np.random.Generator, p: float | None = None,
                          max_vertices: int = 600) -> OperatorSpec:
    tree = random_bary_tree(rng, max_vertices=max_vertices)
    weight = random_weight(rng, tree)
    symbol = random_permutation_map(rng, tree)
    if p is None:
        p = _P_CHOICES[int(rng.integers(len(_P_CHOICES)))]
    return OperatorSpec(tree, weight, symbol, p)


def random_multiplicity_spec(rng: np.random.Generator, multiplicity: int,
                             p: float | None = None,
                             max_vertices: int = 600) -> OperatorSpec:
    tree = random_bary_tree(rng, max_vertices=max_vertices,
                            min_vertices=multiplicity + 2)
    weight = random_weight(rng, tree)
    symbol = random_bounded_multiplicity_map(rng, tree, multiplicity)
    if p is None:
        p = _P_CHOICES[int(rng.integers(len(_P_CHOICES)))]
    return OperatorSpec(tree, weight, symbol, p)


def random_function(rng: np.random.Generator, tree: Tree) -> np.ndarray:
    return rng.standard_normal(len(tree)) + 1j * rng.standard_normal(len(tree))


def random_unit_functions(rng: np.random.Generator, weight: Weight, p: float,
                          count: int) -> np.ndarray:
    """A ``(count, n)`` stack of unit functions, row i drawn as the i-th of
    ``count`` ``random_function`` calls; a zero draw is replaced by the
    normalized indicator of the root."""
    draws = rng.standard_normal((count, 2, len(weight.tree)))
    f = draws[:, 0] + 1j * draws[:, 1]
    nrm = norm_p(f, weight, p)
    zero = nrm == 0.0
    if zero.any():
        f[zero] = 0.0
        f[zero, 0] = 1.0
        nrm[zero] = norm_p(f[zero], weight, p)
    return f / nrm[:, None]


def structured_specs(p: float = 2.0) -> list[tuple[str, OperatorSpec]]:
    """Named, deterministic instances that exercise each builtin family."""
    out: list[tuple[str, OperatorSpec]] = []

    def add(name, tree, weight, symbol):
        out.append((name, OperatorSpec(tree, weight, symbol, p)))

    t_small = build_bary(2, 2)
    add("identity/constant", t_small, constant_weight(t_small, 1.0), identity_map(t_small))
    add("parent/constant", t_small, constant_weight(t_small, 1.0), parent_map(t_small))

    t_bin = build_bary(2, 8)
    add("identity/reciprocal", t_bin, reciprocal_depth_weight(t_bin), identity_map(t_bin))
    add("parent/geometric(0.5)", t_bin, geometric_weight(t_bin, 0.5), parent_map(t_bin))
    add("level_shift(2)/geometric(2)", t_bin, geometric_weight(t_bin, 2.0), level_shift_map(t_bin, 2))
    add("depth_square/reciprocal", t_bin, reciprocal_depth_weight(t_bin), depth_square_map(t_bin))
    add("depth_square/geometric(2)", t_bin, geometric_weight(t_bin, 2.0), depth_square_map(t_bin))

    t_path = build_bary(1, 40)
    add("parent/reciprocal path", t_path, reciprocal_depth_weight(t_path), parent_map(t_path))
    add("level_shift(3)/geometric(0.5) path", t_path, geometric_weight(t_path, 0.5),
        level_shift_map(t_path, 3))

    t_tern = build_bary(3, 5)
    add("parent/constant ternary", t_tern, constant_weight(t_tern, 2.5), parent_map(t_tern))
    return out
