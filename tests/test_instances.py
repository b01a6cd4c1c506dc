import numpy as np
import pytest

from spectree import analyze, build_bary, custom_weight, norm_p
from spectree.instances import (_MAX_BRANCHING, _MAX_DEPTH, random_bary_tree,
                                random_bounded_multiplicity_map, random_function,
                                random_unit_functions)
from spectree.tree import bary_vertex_count


def reference_multiplicity_image(rng, n, multiplicity):
    """The capacity-tracking loop the generator once ran: targets are taken
    in permutation order, skipping any whose capacity is spent."""
    sources = rng.permutation(n)
    targets = rng.permutation(n)
    capacity = np.full(n, multiplicity, dtype=np.int64)
    image = np.empty(n, dtype=np.int64)
    image[sources[:multiplicity]] = targets[0]
    capacity[targets[0]] = 0
    ti = 1
    for s in sources[multiplicity:]:
        while capacity[targets[ti % n]] == 0:
            ti += 1
        t = targets[ti % n]
        image[s] = t
        capacity[t] -= 1
        ti += 1
    return image


@pytest.mark.parametrize("branching, depth", [(1, 1), (1, 4), (2, 1), (2, 3), (3, 3)])
def test_bounded_multiplicity_map_matches_the_capacity_loop(branching, depth):
    tree = build_bary(branching, depth)
    n = len(tree)
    for multiplicity in range(1, n):
        for seed in range(5):
            symbol = random_bounded_multiplicity_map(np.random.default_rng(seed), tree, multiplicity)
            expected = reference_multiplicity_image(np.random.default_rng(seed), n, multiplicity)
            assert np.array_equal(symbol.image, expected)
            assert analyze(symbol).max_multiplicity == multiplicity


def reference_unit_function(rng, weight, p):
    """The one-function generator that random_unit_functions replaced."""
    f = random_function(rng, weight.tree)
    nrm = norm_p(f, weight, p)
    if nrm == 0.0:
        f = np.zeros(len(weight.tree), dtype=np.complex128)
        f[0] = 1.0
        nrm = norm_p(f, weight, p)
    return f / nrm


class _Stream:
    """Serves standard normal draws from a fixed sequence, in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.used = 0

    def standard_normal(self, size):
        count = int(np.prod(size))
        out = self.values[self.used:self.used + count].reshape(size)
        self.used += count
        return out


@pytest.mark.parametrize("branching, depth", [(1, 1), (2, 3), (3, 5), (3, 6)])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_unit_functions_are_the_sequential_draws(branching, depth, p):
    tree = build_bary(branching, depth)
    weight = custom_weight(tree, np.random.default_rng(1).uniform(0.01, 100.0, len(tree)))
    for count in (1, 2, 20):
        rng, ref = np.random.default_rng(count), np.random.default_rng(count)
        stack = random_unit_functions(rng, weight, p, count)
        assert np.array_equal(stack, [reference_unit_function(ref, weight, p) for _ in range(count)])
        assert rng.random() == ref.random()  # both consumed the same stream
    # a zero draw falls back to the root's normalized indicator, row by row
    n = len(tree)
    values = np.random.default_rng(2).standard_normal(6 * n)
    values[2 * n:4 * n] = 0.0  # the second of three draws is zero
    stack = random_unit_functions(_Stream(values), weight, p, 3)
    ref = _Stream(values)
    assert np.array_equal(stack, [reference_unit_function(ref, weight, p) for _ in range(3)])
    assert stack[1, 0] == 1.0 / weight.values[0] ** (1.0 / p) and not stack[1, 1:].any()


def reference_tree_shape(rng, max_vertices, min_vertices):
    """random_bary_tree's shape choice before the shape table."""
    combos = [(b, d)
              for b in range(1, _MAX_BRANCHING + 1)
              for d in range(2, _MAX_DEPTH + 1)
              if (count := bary_vertex_count(b, d, max_vertices=max_vertices)) is not None
              and count >= min_vertices]
    return combos[int(rng.integers(len(combos)))]


@pytest.mark.parametrize("max_vertices, min_vertices",
                         [(3, 1), (7, 7), (40, 1), (200, 1), (200, 6), (600, 1), (600, 100), (2000, 1)])
def test_random_tree_shape_matches_the_filtered_loop(max_vertices, min_vertices):
    for seed in range(20):
        tree = random_bary_tree(np.random.default_rng(seed), max_vertices, min_vertices)
        b, d = reference_tree_shape(np.random.default_rng(seed), max_vertices, min_vertices)
        assert np.array_equal(tree.parent, build_bary(b, d).parent)
