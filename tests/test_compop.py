import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectree import (OperatorSpec, apply, basis_vector, boundedness_report,
                      boundedness_trend, build_bary, compactness_profile,
                      constant_weight, custom_weight, depth_square_map,
                      geometric_weight, identity_map, isometry_check,
                      level_shift_map, norm_p, operator_norm, parent_map,
                      preimage_ratio, ratio_sup, reciprocal_depth_weight, tail_defect)
from spectree.compop import TREND_PLATEAU, TREND_UNBOUNDED, VERDICT_COMPACT, VERDICT_NOT_COMPACT
from spectree.instances import (random_bounded_multiplicity_map, random_function,
                                random_injective_spec, random_multiplicity_spec,
                                random_permutation_map, random_weight)
from spectree.tree import bary_vertex_count


def spec_of(tree, weight, symbol, p=2.0):
    return OperatorSpec(tree, weight, symbol, p)


def test_apply_identity_and_constant():
    t = build_bary(2, 2)
    w = constant_weight(t, 1.0)
    rng = np.random.default_rng(0)
    f = random_function(rng, t)
    assert np.array_equal(apply(spec_of(t, w, identity_map(t)), f), f)
    const = np.full(len(t), 4.2, dtype=complex)
    assert np.array_equal(apply(spec_of(t, w, parent_map(t)), const), const)


def test_apply_parent_moves_indicators_down():
    t = build_bary(1, 3)
    w = constant_weight(t, 1.0)
    spec = spec_of(t, w, parent_map(t))
    f = np.zeros(len(t), dtype=complex)
    f[1] = 1.0
    g = apply(spec, f)
    assert list(g.real) == [0.0, 0.0, 1.0, 0.0]


def test_apply_zeroes_outside_partial_domain():
    t = build_bary(2, 9)
    w = constant_weight(t, 1.0)
    spec = spec_of(t, w, depth_square_map(t))
    g = apply(spec, np.ones(len(t), dtype=complex))
    dom = spec.symbol.domain
    assert (g[dom] == 1.0).all()
    outside = np.setdiff1d(np.arange(len(t)), dom)
    assert (g[outside] == 0.0).all()


def test_ratio_sup_identity_and_constant():
    t = build_bary(3, 3)
    rng = np.random.default_rng(1)
    w = random_weight(rng, t)
    assert ratio_sup(spec_of(t, w, identity_map(t))).value == 1.0
    c = constant_weight(t, 2.0)
    assert ratio_sup(spec_of(t, c, parent_map(t))).value == 1.0
    assert ratio_sup(spec_of(t, c, random_permutation_map(rng, t))).value == 1.0


def test_ratio_sup_depth_square_example():
    t = build_bary(2, 9)
    spec = spec_of(t, reciprocal_depth_weight(t), depth_square_map(t))
    rs = ratio_sup(spec)
    assert rs.value == pytest.approx(2.5, rel=1e-14)
    assert int(t.depth[rs.witness]) == 3


def test_operator_norm_matches_ratio_for_injective():
    rng = np.random.default_rng(2)
    for _ in range(20):
        spec = random_injective_spec(rng)
        rs = ratio_sup(spec).value
        assert operator_norm(spec).value == pytest.approx(rs ** (1.0 / spec.p), rel=1e-12)


def test_operator_norm_parent_map_example():
    t = build_bary(2, 2)
    spec = spec_of(t, constant_weight(t, 1.0), parent_map(t))
    nrm = operator_norm(spec)
    assert nrm.value == pytest.approx(math.sqrt(3), rel=1e-15)
    assert nrm.witness == 0
    # the indicator of the witness attains the norm
    f = basis_vector(spec.weight, nrm.witness, 2.0)
    assert norm_p(apply(spec, f), spec.weight, 2.0) == pytest.approx(nrm.value, rel=1e-12)


def test_norm_sandwich_for_bounded_multiplicity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        mult = int(rng.integers(2, 5))
        spec = random_multiplicity_spec(rng, mult)
        rep = boundedness_report(spec)
        assert rep.multiplicity == mult
        assert rep.norm_lower_bound <= rep.operator_norm * (1 + 1e-10)
        assert rep.operator_norm <= rep.norm_upper_bound * (1 + 1e-10)


def test_boundedness_report_fields():
    t = build_bary(2, 9)
    spec = spec_of(t, reciprocal_depth_weight(t), depth_square_map(t))
    rep = boundedness_report(spec)
    assert rep.injective and not rep.surjective
    assert rep.truncation_depth == 9
    assert rep.vertex_count == len(t)
    assert rep.domain_size == sum(2 ** k for k in range(4))
    assert rep.norm_lower_bound == pytest.approx(rep.operator_norm, rel=1e-12)


def test_isometry_identity_and_bijections():
    t = build_bary(2, 3)
    rng = np.random.default_rng(4)
    assert isometry_check(spec_of(t, random_weight(rng, t), identity_map(t))).is_isometry
    w = constant_weight(t, 3.0)
    for _ in range(5):
        spec = spec_of(t, w, random_permutation_map(rng, t),
                       p=float(rng.choice([1.0, 2.0, 3.0])))
        verdict = isometry_check(spec)
        assert verdict.is_isometry
        assert verdict.reason is None


def test_isometry_fails_for_parent_map_with_collision_witness():
    t = build_bary(2, 2)
    spec = spec_of(t, constant_weight(t, 1.0), parent_map(t))
    verdict = isometry_check(spec)
    assert not verdict.is_isometry
    assert verdict.reason == "not_injective"
    a, b = verdict.collision
    assert spec.symbol.image[a] == spec.symbol.image[b] and a != b
    assert verdict.witness_image_norm == pytest.approx(math.sqrt(3), rel=1e-12)


def test_isometry_fails_on_ratio_deviation_with_unit_witness():
    t = build_bary(2, 3)
    rng = np.random.default_rng(5)
    symbol = random_permutation_map(rng, t)
    values = np.full(len(t), 2.0)
    moved = int(np.flatnonzero(symbol.image != np.arange(len(t)))[0])
    values[moved] *= 1.01
    spec = spec_of(t, custom_weight(t, values), symbol)
    verdict = isometry_check(spec)
    assert not verdict.is_isometry
    assert verdict.reason == "ratio_deviation"
    v = verdict.ratio_vertex
    ratio = values[v] / values[int(symbol.image[v])]
    assert abs(ratio - 1.0) > 1e-12
    assert norm_p(verdict.witness_function, spec.weight, spec.p) == pytest.approx(1.0, rel=1e-12)
    assert abs(verdict.witness_image_norm - 1.0) > 1e-6


def test_isometry_flags_frontier_only_misses():
    from spectree import SelfMap

    t = build_bary(1, 2)
    w = constant_weight(t, 1.0)
    # injective on its domain, missing exactly the frontier vertex
    frontier_miss = spec_of(t, w, SelfMap(t, np.array([0, 1, -1])))
    verdict = isometry_check(frontier_miss)
    assert not verdict.is_isometry
    assert verdict.reason == "not_surjective"
    assert verdict.missed_vertex == 2
    assert verdict.frontier_only_misses
    # missing the root instead: the gap is not a truncation artifact
    root_miss = spec_of(t, w, SelfMap(t, np.array([1, 2, -1])))
    verdict = isometry_check(root_miss)
    assert verdict.reason == "not_surjective"
    assert not verdict.frontier_only_misses
    # a full cyclic shift is a bijection, hence an isometry at constant weight
    assert isometry_check(spec_of(t, w, SelfMap(t, np.array([1, 2, 0])))).is_isometry


def test_non_surjective_injective_partial_map_witness():
    t = build_bary(2, 9)
    spec = spec_of(t, constant_weight(t, 1.0), depth_square_map(t))
    verdict = isometry_check(spec)
    assert not verdict.is_isometry
    assert verdict.reason == "not_surjective"
    assert verdict.witness_image_norm == pytest.approx(0.0, abs=1e-15)
    assert not verdict.frontier_only_misses  # misses at depths 2, 3, 5, ...


def test_compactness_identity_constant_profile():
    t = build_bary(2, 4)
    spec = spec_of(t, constant_weight(t, 1.0), identity_map(t))
    prof = compactness_profile(spec)
    assert (prof.values == 1.0).all()
    assert prof.verdict == VERDICT_NOT_COMPACT
    assert prof.max_image_depth == 4
    assert not prof.frontier_cliff


def test_compactness_profile_starts_at_ratio_sup():
    rng = np.random.default_rng(6)
    for _ in range(10):
        spec = random_injective_spec(rng)
        prof = compactness_profile(spec)
        assert prof.values[0] == pytest.approx(ratio_sup(spec).value, rel=1e-14)
        assert (np.diff(prof.values) <= 1e-300).all()


def test_compactness_geometric_level_shift_values():
    # h = 0.5 at every target below the root; image depths stop at D - 1
    t = build_bary(1, 10)
    spec = spec_of(t, geometric_weight(t, 0.5), level_shift_map(t, 1))
    prof = compactness_profile(spec)
    assert prof.values[0] == 1.5  # the root's preimage is the root and its child
    assert (prof.values[1:10] == 0.5).all()
    assert prof.values[10] == 0.0
    assert prof.max_image_depth == 9
    assert prof.frontier_cliff  # the drop rests on the truncation frontier


def test_compactness_half_depth_ancestor_map_profile(half_depth_ancestor_map):
    # the preimage of a target at depth k spans depths 2k and 2k + 1, so the
    # multiplicity grows with depth and h = 2 until that reaches the frontier
    t = build_bary(2, 16)
    spec = spec_of(t, geometric_weight(t, 0.5), half_depth_ancestor_map(t))
    prof = compactness_profile(spec)
    assert (prof.values[0:8] == 2.0).all()
    assert prof.values[8] == 1.0
    assert (prof.values[9:] == 0.0).all()
    assert prof.max_image_depth == 8
    assert prof.frontier_cliff
    assert prof.values[0] == pytest.approx(operator_norm(spec).value ** 2, rel=1e-15)


def test_max_image_depth_is_structural_when_h_underflows():
    t = build_bary(1, 2)
    spec = spec_of(t, custom_weight(t, [1.0, 1e200, 1e-200]), level_shift_map(t, 1))
    prof = compactness_profile(spec)
    assert prof.values.tolist() == [1e200, 0.0, 0.0]  # h at depth 1 underflows
    assert prof.max_image_depth == 1


def test_compactness_decaying_depth_square_profile():
    t = build_bary(2, 10, branch_until=3)
    spec = spec_of(t, geometric_weight(t, 2.0), depth_square_map(t))
    prof = compactness_profile(spec)
    assert prof.verdict == VERDICT_COMPACT
    assert prof.values[-1] <= 0.1 * prof.values[0]
    assert prof.tail_slope is None or prof.tail_slope <= 0.0


def test_tail_defect_examples():
    t = build_bary(2, 3)
    spec = spec_of(t, constant_weight(t, 1.0), identity_map(t))
    assert tail_defect(spec, 3, 1) == 0.0
    assert tail_defect(spec, 5, 1) == 0.0
    assert tail_defect(spec, 2, 1) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        tail_defect(spec, 1, 1)
    with pytest.raises(ValueError):
        tail_defect(spec, 0, -1)


def assert_tail_defect_bound_and_monotonicity(spec):
    prof = compactness_profile(spec)
    depth = spec.tree.truncation_depth
    for low in (0, depth // 2):
        prev = None
        for n in range(low + 1, depth + 1):
            d = tail_defect(spec, n, low)
            assert d ** spec.p <= prof.values[low] + 1e-10
            if prev is not None:
                assert d <= prev + 1e-12
            prev = d


def test_tail_defect_bound_and_monotonicity():
    rng = np.random.default_rng(7)
    for _ in range(15):
        assert_tail_defect_bound_and_monotonicity(random_injective_spec(rng))


def test_tail_defect_bound_holds_for_non_injective_symbols():
    rng = np.random.default_rng(3)
    for _ in range(40):
        assert_tail_defect_bound_and_monotonicity(
            random_multiplicity_spec(rng, int(rng.integers(2, 5))))


def reference_preimage_ratio(spec):
    """w(preimage(u)) / w(u) with the preimage weight accumulated by np.add.at."""
    acc = np.zeros(len(spec.tree), dtype=np.float64)
    dom = spec.symbol.domain
    np.add.at(acc, spec.symbol.image[dom], spec.weight.values[dom])
    return acc / spec.weight.values


def reference_tail_defect(spec, n, N):
    """tail_defect as a masked maximum over the whole tree."""
    n, N = int(n), int(N)
    if N < 0 or n <= N:
        raise ValueError(f"tail defect requires n > N >= 0, got n={n}, N={N}")
    r = reference_preimage_ratio(spec)
    mask = spec.tree.depth > n
    if not mask.any():
        return 0.0
    return float(r[mask].max() ** (1.0 / spec.p))


def reference_compactness_tail(spec):
    """(tail suprema of h by np.maximum.at over vertex depths, max image depth)."""
    tree = spec.tree
    m = np.zeros(tree.truncation_depth + 1, dtype=np.float64)
    np.maximum.at(m, tree.depth, reference_preimage_ratio(spec))
    s = np.maximum.accumulate(m[::-1])[::-1]
    img = spec.symbol.image[spec.symbol.domain]
    max_image_depth = int(tree.depth[img].max()) if img.size else -1
    return s, max_image_depth


_SHAPES = [(b, d) for b in (1, 2, 3) for d in range(1, 7)
           if (bary_vertex_count(b, d, max_vertices=400) or 0) >= 2]


@given(st.sampled_from(_SHAPES),
       st.sampled_from(["permutation", "multiplicity", "depth_square", "level_shift"]),
       st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.integers(0, 2 ** 32 - 1), st.data())
def test_tails_match_the_full_tree_reference(shape, kind, p, seed, data):
    t = build_bary(*shape)
    rng = np.random.default_rng(seed)
    if kind == "permutation":
        symbol = random_permutation_map(rng, t)
    elif kind == "multiplicity":
        symbol = random_bounded_multiplicity_map(rng, t, data.draw(st.integers(1, len(t) - 1)))
    elif kind == "depth_square":
        symbol = depth_square_map(t)
    else:
        symbol = level_shift_map(t, data.draw(st.integers(0, t.truncation_depth + 1)))
    spec = spec_of(t, random_weight(rng, t), symbol, p)

    h = preimage_ratio(spec)
    assert h.tolist() == reference_preimage_ratio(spec).tolist()
    assert not h.flags.writeable
    prof = compactness_profile(spec)
    values, max_image_depth = reference_compactness_tail(spec)
    assert prof.values.tolist() == values.tolist()
    assert prof.max_image_depth == max_image_depth
    D = t.truncation_depth
    for N in range(D + 1):
        for n in range(N + 1, D + 3):
            assert tail_defect(spec, n, N) == reference_tail_defect(spec, n, N)


def test_boundedness_trend_vocabulary():
    assert boundedness_trend([5 / 3, 5 / 2, 17 / 5]) == TREND_UNBOUNDED
    assert boundedness_trend([1.0, 1.0, 1.0]) == TREND_PLATEAU
    assert boundedness_trend([1.0]) == "inconclusive"
    assert boundedness_trend([1.0, 1.2, 1.1]) == "inconclusive"


def test_spec_validation():
    t = build_bary(2, 2)
    other = build_bary(2, 2)
    w = constant_weight(t, 1.0)
    with pytest.raises(ValueError):
        OperatorSpec(t, constant_weight(other, 1.0), identity_map(t), 2.0)
    with pytest.raises(ValueError):
        OperatorSpec(t, w, identity_map(other), 2.0)
    with pytest.raises(ValueError):
        OperatorSpec(t, w, identity_map(t), 0.5)
