import numpy as np
import pytest

from spectree import analyze, build_bary
from spectree.instances import random_bounded_multiplicity_map


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
