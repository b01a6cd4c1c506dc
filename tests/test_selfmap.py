import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectree import (DocumentError, OperatorSpec, SelfMap, adversary_unbounded,
                      adversary_vanishing, analyze, build_bary, constant_weight,
                      custom_weight, depth_square_map, dump_map, geometric_weight,
                      identity_map, isometry_check, level_shift_map, load_map,
                      load_tree, parent_map, reciprocal_depth_weight, truncate,
                      vertices_at_level)
from spectree.selfmap import _ADMISSIBLE, _swap_prefix, _weight_orders
from spectree.tree import VERTEX_DTYPE


def ratios(tree, weight, symbol):
    dom = symbol.domain
    return weight.values[dom] / weight.values[symbol.image[dom]]


def test_identity_profile():
    t = build_bary(2, 2)
    prof = analyze(identity_map(t))
    assert prof.injective and prof.surjective_on_truncation
    assert prof.max_multiplicity == 1
    assert list(prof.fixed_points) == list(range(7))
    assert identity_map(t).domain.size == 7


def test_parent_map_profile_on_binary_tree():
    t = build_bary(2, 2)
    prof = analyze(parent_map(t))
    assert not prof.injective
    assert prof.max_multiplicity == 3
    m = parent_map(t)
    assert list(np.flatnonzero(m.image == 0)) == [0, 1, 2]
    assert list(prof.preimage_count) == [3, 2, 2, 0, 0, 0, 0]
    assert list(prof.fixed_points) == [0]
    assert not prof.surjective_on_truncation
    assert prof.preimage_count.sum() == len(t)


def test_preimage_counts_partition_the_domain():
    t = build_bary(3, 3)
    rng = np.random.default_rng(11)
    image = rng.integers(-1, len(t), len(t))
    m = SelfMap(t, image)
    prof = analyze(m)
    # every domain vertex lies in exactly one preimage
    assert prof.preimage_count.sum() == m.domain.size == np.count_nonzero(image >= 0)
    for u in range(len(t)):
        assert prof.preimage_count[u] == np.count_nonzero(image == u)
    with pytest.raises(ValueError):
        prof.preimage_count[0] = 0


def test_depth_square_map_structure():
    t = build_bary(2, 9)
    m = depth_square_map(t)
    assert m.params is None
    assert int(t.depth[m.domain[-1]]) == 3  # the effective domain depth isqrt(9)
    prof = analyze(m)
    assert prof.injective
    # root and the whole first level are fixed; nothing else is
    level1 = {int(v) for v in vertices_at_level(t, 1)}
    assert set(prof.fixed_points) == {0} | level1
    assert m.domain.size == t.level_start[4] == sum(len(vertices_at_level(t, n)) for n in range(4))
    # the i-th depth-3 vertex lands on the i-th depth-9 vertex
    src = vertices_at_level(t, 3)
    dst = vertices_at_level(t, 9)
    assert list(m.image[src]) == list(dst[: src.size])
    # vertices past the effective domain are excluded, not padded
    assert (m.image[vertices_at_level(t, 4)] == -1).all()
    assert not m.is_total


def test_depth_square_weight_ratio_example():
    t = build_bary(2, 9)
    m = depth_square_map(t)
    w = reciprocal_depth_weight(t)
    v = int(vertices_at_level(t, 3)[0])
    assert w.values[v] / w.values[int(m.image[v])] == pytest.approx(2.5, rel=1e-15)


def test_depth_square_needs_wide_image_levels():
    # level 4 narrower than level 2 breaks the index-preserving construction
    doc = {"vertices": [
        {"id": "r", "parent": None},
        {"id": "a", "parent": "r"}, {"id": "b", "parent": "r"},
        {"id": "c", "parent": "a"}, {"id": "d", "parent": "b"},
        {"id": "e", "parent": "c"}, {"id": "h", "parent": "d"},
        {"id": "f", "parent": "e"},
    ]}
    t = load_tree(doc)
    assert t.truncation_depth == 4
    with pytest.raises(ValueError, match="level 4"):
        depth_square_map(t)


def test_level_shift_examples():
    t = build_bary(1, 5)
    m = level_shift_map(t, 2)
    v5 = int(vertices_at_level(t, 5)[0])
    assert int(t.depth[m.image[v5]]) == 3
    assert int(m.image[0]) == 0  # clamped at the root
    assert int(m.image[1]) == 0
    assert list(analyze(level_shift_map(t, 0)).fixed_points) == list(range(6))
    with pytest.raises(ValueError):
        level_shift_map(t, -1)


def test_level_shift_beyond_the_depth_is_the_shift_to_the_root():
    # on the long path, moving up one level per pass would take seconds
    for t in (build_bary(2, 4), build_bary(1, 32000)):
        began = time.perf_counter()
        far = level_shift_map(t, 10 ** 9)
        assert time.perf_counter() - began < 1.0
        assert np.array_equal(far.image, level_shift_map(t, t.truncation_depth).image)
        assert (far.image == 0).all()
        assert far.params == {"k": 10 ** 9}
        assert dump_map(far) == {"builtin": "level_shift", "params": {"k": 10 ** 9}}


def level_shift_by_steps(tree, k):
    # the reference: one level up per pass, min(k, depth) passes over all vertices
    image = np.arange(len(tree), dtype=np.int64)
    for _ in range(min(k, tree.truncation_depth)):
        up = tree.parent[image]
        image = np.where(up >= 0, up, image)
    return image


@pytest.mark.parametrize("shape", [(2, 8), (3, 5), (2, 12, 4), (1, 50)])
def test_level_shift_by_squaring_matches_the_stepwise_loop(shape):
    t = build_bary(*shape)
    for k in range(t.truncation_depth + 3):
        m = level_shift_map(t, k)
        assert np.array_equal(m.image, level_shift_by_steps(t, k))
        assert (m.label, m.params, dump_map(m)) == (
            "level_shift", {"k": k}, {"builtin": "level_shift", "params": {"k": k}})
    # identity and parent are the shifts by 0 and 1, under their own names
    for m, k, label in ((identity_map(t), 0, "identity"), (parent_map(t), 1, "parent")):
        assert np.array_equal(m.image, level_shift_by_steps(t, k))
        assert (m.label, m.params, dump_map(m)) == (label, None, {"builtin": label})


def test_level_shift_refuses_a_non_integral_shift():
    t = build_bary(2, 4)
    for k in (2.5, np.float64(2.5), 2.0, "2"):
        with pytest.raises(ValueError, match="level shift must be an integer"):
            level_shift_map(t, k)
    m = level_shift_map(t, np.int64(2))  # numpy integers pass, recorded as int
    assert np.array_equal(m.image, level_shift_map(t, 2).image)
    assert type(m.params["k"]) is int and m.params == {"k": 2}


def test_parent_map_on_path():
    t = build_bary(1, 3)
    m = parent_map(t)
    assert list(m.image) == [0, 0, 1, 2]


def test_load_map_and_validation():
    t = build_bary(1, 2)
    m = load_map(t, {"map": {"0": "0", "1": "0", "2": "1"}})
    assert list(m.image) == [0, 0, 1]
    with pytest.raises(DocumentError, match="unknown vertex"):
        load_map(t, {"map": {"0": "0", "1": "0", "2": "9"}})
    with pytest.raises(DocumentError, match="missing"):
        load_map(t, {"map": {"0": "0", "1": "0"}})
    with pytest.raises(DocumentError, match="unknown builtin"):
        load_map(t, {"builtin": "rotate"})
    with pytest.raises(DocumentError):
        load_map(t, {})


def test_self_map_rejects_out_of_range_images():
    t = build_bary(1, 2)
    with pytest.raises(DocumentError, match="outside the stored vertex set"):
        SelfMap(t, np.array([0, 5, 1]))


def test_out_of_range_error_names_the_first_offending_vertex():
    t = build_bary(1, 3)
    # 2**32 + 1 and -2**32 would wrap into range as 32-bit ids
    for image, first in (([0, 0, 4, -2], "2"), ([-2, 9, 0, 1], "0"), ([0, 1, 2, 4], "3"),
                         ([0, 2 ** 32 + 1, 2, 3], "1"), ([0, 1, -2 ** 32, 3], "2")):
        with pytest.raises(DocumentError) as raised:
            SelfMap(t, np.array(image))
        assert str(raised.value) == f"map sends vertex '{first}' outside the stored vertex set"
    named = load_tree({"vertices": [{"id": "r", "parent": None}, {"id": "a", "parent": "r"},
                                    {"id": "b", "parent": "r"}]})
    with pytest.raises(DocumentError) as raised:
        SelfMap(named, np.array([0, -1, -7]))
    assert str(raised.value) == "map sends vertex 'b' outside the stored vertex set"
    assert SelfMap(t, np.array([-1, 0, 1, 3])).domain.tolist() == [1, 2, 3]


def test_dump_map_round_trips():
    t = build_bary(2, 3)
    for m in (identity_map(t), parent_map(t), level_shift_map(t, 2),
              depth_square_map(t)):
        again = load_map(t, dump_map(m))
        assert np.array_equal(again.image, m.image)
    custom = load_map(t, dump_map(SelfMap(t, np.zeros(len(t), dtype=np.int64))))
    assert (custom.image == 0).all()
    # a builtin's label on another image is written as a table, or refused if partial
    for m in (SelfMap(t, np.arange(len(t)), label="parent"),
              SelfMap(t, parent_map(t).image, label="level_shift", params={"k": 2}),
              SelfMap(t, parent_map(t).image, label="level_shift"),
              SelfMap(t, np.zeros(len(t)), label="depth_square")):
        assert "map" in dump_map(m)
        assert np.array_equal(load_map(t, dump_map(m)).image, m.image)
    partial = np.where(np.arange(len(t)) == 2, -1, depth_square_map(t).image)
    with pytest.raises(ValueError, match="partial domain"):
        dump_map(SelfMap(t, partial, label="depth_square"))


def test_adversary_unbounded_prefers_extreme_pairs():
    t = build_bary(1, 2)
    w = custom_weight(t, [9.0, 2.0, 1.0])
    m = adversary_unbounded(t, w)
    assert m is not None
    assert analyze(m).injective
    # 9 > 2**2 held, and the greedy match takes the lightest target first
    assert ratios(t, w, m).max() >= 4.5


def test_adversary_unbounded_on_growing_geometric_path():
    t = build_bary(1, 4)
    w = geometric_weight(t, 4.0)
    m = adversary_unbounded(t, w)
    assert m is not None
    assert ratios(t, w, m).max() >= 4.0 ** 3


def test_adversary_vanishing_inequality_example():
    t = build_bary(1, 2)
    w = custom_weight(t, [1.0, 0.1, 0.005])
    m = adversary_vanishing(t, w)
    assert m is not None
    assert analyze(m).injective
    assert ratios(t, w, m).max() >= 20.0


def test_adversary_vanishing_on_shrinking_geometric_path():
    t = build_bary(1, 4)
    w = geometric_weight(t, 0.25)
    m = adversary_vanishing(t, w)
    assert m is not None
    assert ratios(t, w, m).max() >= 16.0


def test_constant_weight_yields_no_adversary():
    t = build_bary(2, 3)
    for c in (1.0, 0.5, 2.0):
        w = constant_weight(t, c)
        assert adversary_unbounded(t, w) is None
        assert adversary_vanishing(t, w) is None


def test_adversaries_beat_the_identity_ratio():
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = build_bary(int(rng.integers(1, 4)), int(rng.integers(2, 5)))
        w = custom_weight(t, rng.uniform(0.01, 100.0, len(t)))
        for build in (adversary_unbounded, adversary_vanishing):
            m = build(t, w)
            if m is None:
                continue
            prof = analyze(m)
            assert prof.injective
            assert ratios(t, w, m).max() > 1.0


def reference_preimage_index(symbol):
    """Dict of per-vertex preimage tuples, each ascending."""
    n = len(symbol.tree)
    dom = symbol.domain
    img = symbol.image[dom]
    order = np.argsort(img, kind="stable")
    cuts = np.searchsorted(img[order], np.arange(n + 1))
    return {u: tuple(int(x) for x in dom[order[cuts[u]:cuts[u + 1]]]) for u in range(n)}


@given(st.sampled_from([(1, 0), (1, 3), (2, 2), (2, 4), (3, 3)]), st.data())
def test_profile_and_isometry_witnesses_match_the_dict_reference(shape, data):
    t = build_bary(*shape)
    n = len(t)
    image = data.draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
    symbol = SelfMap(t, image)
    prof = analyze(symbol)
    index = reference_preimage_index(symbol)

    assert list(prof.preimage_count) == [len(index[u]) for u in range(n)]
    assert list(prof.fixed_points) == [v for v in range(n) if v in index[v]]
    assert prof.injective == all(len(pre) <= 1 for pre in index.values())
    assert prof.surjective_on_truncation == all(index.values())

    verdict = isometry_check(OperatorSpec(t, constant_weight(t, 1.0), symbol, 2.0))
    misses = [u for u in range(n) if not index[u]]
    witness_preimage = tuple(np.flatnonzero(symbol.image == verdict.witness_vertex).tolist())
    if not prof.injective:
        shared = next(u for u, pre in index.items() if len(pre) > 1)
        assert verdict.witness_vertex == shared and witness_preimage == index[shared]
    elif misses:
        assert verdict.witness_vertex == misses[0] and witness_preimage == ()
    else:
        assert verdict.is_isometry
    assert verdict.frontier_only_misses == (
        not verdict.is_isometry and bool(misses)
        and all(int(t.depth[u]) == t.truncation_depth for u in misses))


def _reference_pair_greedily(lam, source_order, target_order, admissible):
    # both orders already encode "best pairs first"; a vertex is consumed by
    # its first use in either role so the matched pairs stay disjoint
    n = lam.shape[0]
    used = np.zeros(n, dtype=bool)
    pairs = []
    ti = 0
    for s in source_order:
        s = int(s)
        if used[s]:
            continue
        while ti < n and (used[target_order[ti]] or int(target_order[ti]) == s):
            ti += 1
        if ti >= n:
            break
        t = int(target_order[ti])
        if not admissible(lam[s], lam[t]):
            # orders are monotone in weight, so no later source can do better
            break
        used[s] = True
        used[t] = True
        pairs.append((s, t))
    return pairs


def reference_adversary(tree, weight, label):
    """The greedy per-vertex pairing both adversaries were first written
    with: heavy sources and light targets in ``lexsort`` order, a vertex
    used at most once, stopping at the first inadmissible pair."""
    lam = weight.values
    ids = np.arange(len(tree))
    if label == "adversary_unbounded":
        source_order = np.lexsort((ids, -lam))
        target_order = np.lexsort((ids, lam))
        pairs = _reference_pair_greedily(lam, source_order, target_order,
                                         lambda ls, lt: lt * lt < ls and lt < ls)
    else:
        target_order = np.lexsort((ids, lam))
        source_order = np.lexsort((ids, -lam))
        pairs = _reference_pair_greedily(lam, target_order, source_order,
                                         lambda lt, ls: lt < ls * ls and lt < ls)
    if not pairs:
        return None
    image = np.arange(len(tree), dtype=np.int64)
    for s, t in pairs:
        image[s] = t
        image[t] = s
    return SelfMap(tree, image, label=label, params={"pair_count": len(pairs)})


@given(st.integers(1, 3), st.integers(0, 5),
       st.sampled_from(["three_values", "log_uniform", "constant"]), st.data())
def test_adversaries_match_the_greedy_reference(branching, depth, kind, data):
    t = build_bary(branching, depth)
    n = len(t)
    if kind == "three_values":  # many ties, around and away from 1
        values = data.draw(st.lists(st.sampled_from([0.1, 0.3, 0.5, 1.0, 1.5, 2.0, 4.0]),
                                    min_size=3, max_size=3))
        lam = data.draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    elif kind == "log_uniform":
        lam = [10.0 ** e for e in data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))]
    else:
        lam = [data.draw(st.floats(1e-3, 1e3))] * n
    w = custom_weight(t, lam)
    for build in (adversary_unbounded, adversary_vanishing):
        got, want = build(t, w), reference_adversary(t, w, build.__name__)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got.image, want.image)
            assert (got.label, got.params) == (want.label, want.params)


def test_adversaries_on_weights_whose_squares_overflow():
    t = build_bary(2, 3)
    w = custom_weight(t, 10.0 ** np.linspace(-300, 300, len(t))[::-1])
    with np.errstate(over="ignore"):
        want = [reference_adversary(t, w, label)
                for label in ("adversary_unbounded", "adversary_vanishing")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # squares beyond the float range are no warning
        got = [adversary_unbounded(t, w), adversary_vanishing(t, w)]
    for g, r in zip(got, want):
        assert np.array_equal(g.image, r.image) and g.params == r.params


def test_domain_is_a_read_only_vertex_id_array():
    t = build_bary(2, 4)
    total, partial = parent_map(t), depth_square_map(t)
    for symbol in (total, partial):
        assert symbol.domain.dtype == VERTEX_DTYPE and not symbol.domain.flags.writeable
    assert np.array_equal(total.domain, np.arange(len(t)))
    assert np.array_equal(partial.domain, np.arange(t.level_start[3]))  # depths 0..isqrt(4)
    # gathers on the domain index a total symbol by a slice, not by the int32 ids
    assert total.domain_index == slice(None) and partial.domain_index is partial.domain


@given(st.integers(1, 3), st.integers(0, 4), st.data())
def test_sorts_of_a_prefix_are_the_source_sorts_restricted(branching, depth, data):
    # weights from three values, so most of them tie and the ties go by id
    tree = build_bary(branching, depth)
    n = len(tree)
    names = data.draw(st.lists(st.text(max_size=3), min_size=n, max_size=n, unique=True))
    tree = load_tree({"vertices": [{"id": names[v], "parent": names[p] if p >= 0 else None}
                                   for v, p in enumerate(tree.parent.tolist())]})
    w = custom_weight(tree, data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                               min_size=n, max_size=n)))
    orders = _weight_orders(w.values)
    for d in range(depth + 1):
        sub = truncate(tree, d)
        m, sub_weight = len(sub), custom_weight(sub, w.values[:len(sub)])
        restricted = tuple(order[order < m] for order in orders)
        for whole, own in zip(restricted + (tree.name_order[tree.name_order < m],),
                              _weight_orders(sub_weight.values) + (sub.name_order,)):
            assert np.array_equal(whole, own)
        for label, build in zip(_ADMISSIBLE, (adversary_unbounded, adversary_vanishing)):
            got, want = _swap_prefix(sub, sub_weight, restricted, label), build(sub, sub_weight)
            assert (got is None) == (want is None)
            assert got is None or np.array_equal(got.image, want.image)
