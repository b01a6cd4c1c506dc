import time
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectree import DocumentError, build_bary, dump_tree, load_tree, truncate, vertices_at_level
from spectree.tree import VERTEX_DTYPE, _assemble, bary_vertex_count


def degree(tree, v):
    return int(np.count_nonzero(tree.parent == v)) + (1 if tree.parent[v] >= 0 else 0)


def test_binary_depth_three_counts():
    t = build_bary(2, 3)
    assert len(t) == 15
    assert np.diff(t.level_start).tolist() == [1, 2, 4, 8]
    assert vertices_at_level(t, 3).size == 8


def test_unary_generator_is_a_path():
    t = build_bary(1, 5)
    assert len(t) == 6
    assert list(t.depth) == [0, 1, 2, 3, 4, 5]
    assert list(t.parent) == [-1, 0, 1, 2, 3, 4]


def test_ternary_depth_two_structure():
    t = build_bary(3, 2)
    assert len(t) == 13
    assert degree(t, 0) == 3
    for v in vertices_at_level(t, 1):
        assert degree(t, int(v)) == 4


def test_zero_branching_rejected():
    with pytest.raises(ValueError):
        build_bary(0, 2)
    with pytest.raises(ValueError):
        build_bary(2, -1)


def test_branch_until_tapers_the_frontier():
    t = build_bary(2, 6, branch_until=2)
    assert np.diff(t.level_start).tolist() == [1, 2, 4, 4, 4, 4, 4]
    assert t.terminal_gaps == ()
    # chains preserve the level-wise ancestry
    for v in vertices_at_level(t, 6):
        assert int(t.depth[int(t.parent[int(v)])]) == 5


def test_generated_trees_have_no_terminal_gaps():
    for b, d in ((1, 4), (2, 3), (3, 2)):
        assert build_bary(b, d).terminal_gaps == ()


def test_levels_beyond_frontier_are_empty():
    t = build_bary(2, 2)
    assert vertices_at_level(t, 5).size == 0
    assert list(vertices_at_level(t, 0)) == [0]
    with pytest.raises(ValueError):
        vertices_at_level(t, -1)


def test_parent_is_one_level_up():
    rng = np.random.default_rng(12)
    for _ in range(5):
        t = build_bary(int(rng.integers(1, 4)), int(rng.integers(1, 5)))
        for v in range(1, len(t)):
            assert t.depth[v] == t.depth[int(t.parent[v])] + 1


def test_level_sizes_sum_to_vertex_count():
    for b, d in ((1, 6), (2, 4), (3, 3)):
        t = build_bary(b, d)
        assert sum(len(vertices_at_level(t, n)) for n in range(d + 1)) == t.level_start[-1] == len(t)


def test_load_three_vertex_path():
    t = load_tree({"vertices": [
        {"id": "r", "parent": None},
        {"id": "a", "parent": "r"},
        {"id": "b", "parent": "a"},
    ]})
    assert list(t.depth) == [0, 1, 2]
    assert t.name_of(0) == "r"


def test_load_self_parent_is_a_cycle():
    doc = {"vertices": [
        {"id": "r", "parent": None},
        {"id": "a", "parent": "a"},
    ]}
    with pytest.raises(DocumentError, match="cycle"):
        load_tree(doc)


def test_load_two_vertex_cycle():
    doc = {"vertices": [
        {"id": "r", "parent": None},
        {"id": "a", "parent": "b"},
        {"id": "b", "parent": "a"},
    ]}
    with pytest.raises(DocumentError, match="cycle"):
        load_tree(doc)


def test_load_depth_profile_example():
    t = load_tree({"vertices": [
        {"id": "r", "parent": None},
        {"id": "a", "parent": "r"},
        {"id": "b", "parent": "r"},
        {"id": "c", "parent": "a"},
    ]})
    assert len(t) == 4
    assert np.diff(t.level_start).tolist() == [1, 2, 1]
    # b is shallower than the frontier and childless: flagged, not rejected
    assert t.terminal_gaps == (2,)
    assert t.name_of(2) == "b"


def test_load_rejects_multiple_roots_and_unknown_parent():
    with pytest.raises(DocumentError, match="multiple roots"):
        load_tree({"vertices": [{"id": "r", "parent": None},
                                {"id": "s", "parent": None}]})
    with pytest.raises(DocumentError, match="unknown parent"):
        load_tree({"vertices": [{"id": "r", "parent": None},
                                {"id": "a", "parent": "zz"}]})
    with pytest.raises(DocumentError, match="no root"):
        load_tree({"vertices": [{"id": "a", "parent": "b"},
                                {"id": "b", "parent": "a"}]})
    with pytest.raises(DocumentError, match="duplicate"):
        load_tree({"vertices": [{"id": "r", "parent": None},
                                {"id": "r", "parent": "r"}]})
    with pytest.raises(DocumentError, match="tree document vertex 'a' has unknown key 'colour'; "
                                            "allowed keys: id, parent"):
        load_tree({"vertices": [{"id": "r", "parent": None},
                                {"id": "a", "parent": "r", "colour": "red"}]})


def test_root_is_reordered_first():
    t = load_tree({"vertices": [
        {"id": "a", "parent": "r"},
        {"id": "r", "parent": None},
        {"id": "b", "parent": "a"},
    ]})
    assert t.name_of(0) == "r"
    assert list(t.depth) == [0, 1, 2]
    assert t.names == ("r", "a", "b")


def test_load_accepts_any_mapping_as_a_vertex_entry():
    entries = [MappingProxyType({"id": "r", "parent": None}), {"id": "a", "parent": "r"}]
    assert load_tree({"vertices": entries}).names == ("r", "a")
    with pytest.raises(DocumentError, match="vertex #1"):
        load_tree({"vertices": [{"id": "r", "parent": None}, ["a", "r"]]})


def test_serialization_round_trip_is_isomorphic():
    for b, d in ((1, 5), (2, 3), (3, 2)):
        t = build_bary(b, d)
        u = load_tree(dump_tree(t))
        assert np.array_equal(t.parent, u.parent)
        assert np.array_equal(t.depth, u.depth)
        assert np.array_equal(t.level_start, u.level_start)
        assert u.truncation_depth == t.truncation_depth


def test_level_order_is_lexicographic_by_path():
    # document order scrambles the ids; preorder rank restores path order
    t = load_tree({"vertices": [
        {"id": "r", "parent": None},
        {"id": "right", "parent": "r"},
        {"id": "left", "parent": "r"},
        {"id": "rl", "parent": "right"},
        {"id": "ll", "parent": "left"},
    ]})
    level1 = [t.name_of(int(v)) for v in vertices_at_level(t, 1)]
    assert level1 == ["right", "left"]  # sibling order = document order
    level2 = [t.name_of(int(v)) for v in vertices_at_level(t, 2)]
    assert level2 == ["rl", "ll"]


def test_truncate_binary_tree():
    t = build_bary(2, 3)
    u = truncate(t, 2)
    assert len(u) == 7
    assert u.truncation_depth == 2
    assert np.array_equal(u.parent, build_bary(2, 2).parent)
    assert truncate(t, 3) is t
    with pytest.raises(ValueError):
        truncate(t, 4)


def test_truncate_preserves_names():
    t = load_tree({"vertices": [
        {"id": "r", "parent": None},
        {"id": "a", "parent": "r"},
        {"id": "b", "parent": "a"},
    ]})
    u = truncate(t, 1)
    assert u.names == ("r", "a")
    assert u.vertex_names() == ("r", "a")


def test_generator_guards_against_huge_trees():
    with pytest.raises(ValueError, match="branch_until"):
        build_bary(2, 100)


def test_oversized_generators_are_refused_before_allocating():
    for b, d in ((2, 10 ** 5), (2, 10 ** 9), (1, 10 ** 9)):
        began = time.perf_counter()
        with pytest.raises(ValueError, match="more than 5000000 vertices"):
            build_bary(b, d)
        # the size check is arithmetic on at most ~23 levels, never a list
        assert time.perf_counter() - began < 1.0
    # a path of 5000000 vertices is within the cap, one vertex more is not
    assert bary_vertex_count(1, 4_999_999) == 5_000_000
    with pytest.raises(ValueError, match="more than 5000000 vertices"):
        build_bary(1, 5_000_000)


def test_bary_vertex_count_matches_the_built_tree():
    for b, d, bu in ((1, 7, None), (2, 5, None), (3, 4, 2), (2, 6, 0), (4, 3, 9)):
        assert bary_vertex_count(b, d, bu) == len(build_bary(b, d, bu))
    assert bary_vertex_count(2, 3, max_vertices=14) is None
    assert bary_vertex_count(2, 3, max_vertices=15) == 15
    assert bary_vertex_count(2, 2, max_vertices=6) is None
    assert bary_vertex_count(2, 2, max_vertices=7) == 7
    assert bary_vertex_count(1, 10 ** 100) is None


def reference_assemble(parent):
    """Pure-Python assembly: children lists, BFS depths, DFS preorder ranks
    and a per-vertex gap scan. Returns (depth, levels, terminal_gaps)."""
    parent = np.asarray(parent, dtype=np.int64)
    n = int(parent.shape[0])
    root = int(np.flatnonzero(parent < 0)[0])
    children = [[] for _ in range(n)]
    for v in range(n):
        if v != root:
            children[int(parent[v])].append(v)

    depth = np.full(n, -1, dtype=np.int64)
    depth[root] = 0
    queue = [root]
    for v in queue:
        for c in children[v]:
            depth[c] = depth[v] + 1
            queue.append(c)
    if (depth < 0).any():
        v = int(np.flatnonzero(depth < 0)[0])
        raise DocumentError(f"cycle detected: vertex '{v}' is not reachable from the root")

    d_max = int(depth.max())

    rank = np.empty(n, dtype=np.int64)
    stack = [root]
    r = 0
    while stack:
        v = stack.pop()
        rank[v] = r
        r += 1
        stack.extend(reversed(children[v]))
    order = np.lexsort((rank, depth))
    cuts = np.searchsorted(depth[order], np.arange(d_max + 2))
    levels = [order[cuts[k]:cuts[k + 1]] for k in range(d_max + 1)]
    gaps = tuple(v for v in range(n) if depth[v] < d_max and not children[v])
    return depth, levels, gaps


@st.composite
def parent_arrays(draw, cycles=True):
    """Random trees with shuffled ids, the root's included: each vertex
    either continues a single-child chain or hangs off a random earlier
    vertex, so terminal gaps are common. With ``cycles``, one vertex may be
    re-parented onto its own subtree, which cuts that subtree off from the
    root."""
    n = draw(st.integers(1, 40))
    picks = draw(st.lists(st.integers(0, 2 ** 16), min_size=n - 1, max_size=n - 1))
    parent = [-1] + [v - 1 if pick % 3 == 0 else pick % v
                     for v, pick in enumerate(picks, start=1)]
    if n > 1 and cycles and draw(st.booleans()):
        v = draw(st.integers(1, n - 1))
        subtree = [w for w in range(v, n) if w == v or _has_ancestor(parent, w, v)]
        parent[v] = draw(st.sampled_from(subtree))
    new_id = draw(st.permutations(range(n)))
    relabeled = np.empty(n, dtype=np.int64)
    for v in range(n):
        relabeled[new_id[v]] = -1 if v == 0 else new_id[parent[v]]
    return relabeled


def _has_ancestor(parent, w, v):
    while w > v:
        w = parent[w]
    return w == v


def _id_arrays_read_only(tree):
    # vertex ids and depths in the one vertex-id dtype, offsets in int64
    return (tree.parent.dtype == tree.depth.dtype == VERTEX_DTYPE
            and tree.level_start.dtype == np.int64
            and not any(a.flags.writeable for a in (tree.parent, tree.depth, tree.level_start)))


@given(parent_arrays())
def test_assembly_matches_the_pure_python_reference(parent):
    # names carry the input ids through the renumbering into level order
    names = tuple(str(v) for v in range(len(parent)))
    try:
        depth, levels, gaps = reference_assemble(parent)
    except DocumentError as exc:
        for given_names in (None, names):
            with pytest.raises(DocumentError) as raised:
                _assemble(parent, given_names)
            assert str(raised.value) == str(exc)
        return
    t = _assemble(parent, names)
    old = np.array([int(name) for name in t.names], dtype=np.int64)  # input id of each new id
    assert [list(old[t.level_start[k]:t.level_start[k + 1]]) for k in range(len(levels))] \
        == [list(lvl) for lvl in levels]
    assert len(t.level_start) == len(levels) + 1 and t.level_start[-1] == len(t)
    assert (np.diff(t.level_start) > 0).all()
    assert np.array_equal(t.depth, depth[old])
    assert t.parent[0] == -1 and parent[old[0]] == -1
    assert np.array_equal(old[t.parent[1:]], parent[old[1:]])
    assert tuple(sorted(old[list(t.terminal_gaps)].tolist())) == gaps
    assert list(t.terminal_gaps) == sorted(t.terminal_gaps)
    assert _id_arrays_read_only(t)
    unnamed = _assemble(parent, None)
    assert unnamed.names is None and unnamed.terminal_gaps == t.terminal_gaps
    for field in ("parent", "depth", "level_start"):
        assert np.array_equal(getattr(unnamed, field), getattr(t, field))


def test_build_bary_matches_the_assembly_of_its_parent_array():
    for b in range(1, 5):
        for d in range(7):
            for bu in (None, 0, 1, 2, 4, 9):
                t = build_bary(b, d, bu)
                u = _assemble(t.parent, None)
                for field in ("parent", "depth", "level_start"):
                    assert np.array_equal(getattr(t, field), getattr(u, field))
                assert (t.truncation_depth, t.names, t.terminal_gaps) \
                    == (u.truncation_depth, u.names, u.terminal_gaps) == (d, None, ())
                assert _id_arrays_read_only(t)


def reference_bary_arrays(b, d, bu):
    """(parent, depth, level_start) of build_bary with the parent array
    chosen by np.where over two full-length branches."""
    bu = d if bu is None else min(bu, d)
    width = b ** bu
    widths = b ** np.minimum(np.arange(d + 1, dtype=np.int64), bu)
    n = int(widths.sum())
    v = np.arange(n, dtype=np.int64)
    parent = np.where(v < n - (d - bu) * width, (v - 1) // b, v - width)
    return parent, np.repeat(np.arange(d + 1, dtype=np.int64), widths), np.cumsum(np.append(0, widths))


def test_build_bary_matches_the_two_branch_reference():
    for b in range(1, 5):
        for d in range(9):
            for bu in (None, *range(d + 2)):
                t = build_bary(b, d, bu)
                for field, ref in zip(("parent", "depth", "level_start"),
                                      reference_bary_arrays(b, d, bu)):
                    assert np.array_equal(getattr(t, field), ref), (b, d, bu, field)
                assert _id_arrays_read_only(t)


def reference_truncate(tree, new_depth):
    """Truncation by re-assembly: relabel the kept vertices and run
    ``_assemble`` on them again."""
    if new_depth == tree.truncation_depth:
        return tree
    keep = np.flatnonzero(tree.depth <= new_depth)
    remap = np.full(len(tree), -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size, dtype=np.int64)
    parent = np.concatenate((np.array([-1], dtype=np.int64),
                             remap[tree.parent[keep[1:]]]))
    names = None if tree.names is None else tuple(tree.names[int(v)] for v in keep)
    return _assemble(parent, names=names)


@given(parent_arrays(cycles=False), st.booleans(), st.data())
def test_truncate_matches_reassembly(parent, named, data):
    n = len(parent)
    names = tuple(f"v{i}" for i in data.draw(st.permutations(range(n)))) if named else None
    tree = _assemble(parent, names)
    new_depth = data.draw(st.integers(0, tree.truncation_depth))
    got, want = truncate(tree, new_depth), reference_truncate(tree, new_depth)
    assert got.truncation_depth == want.truncation_depth == new_depth
    assert np.array_equal(got.parent, want.parent)
    assert np.array_equal(got.depth, want.depth)
    assert np.array_equal(got.level_start, want.level_start)
    assert (np.diff(got.level_start) > 0).all()
    assert got.terminal_gaps == want.terminal_gaps
    assert got.names == want.names
    assert _id_arrays_read_only(got)
    # the kept vertices are an id prefix, and the result views its arrays
    assert np.array_equal(np.flatnonzero(tree.depth <= new_depth), np.arange(len(got)))
    if new_depth < tree.truncation_depth:
        for field in ("parent", "level_start"):
            assert np.shares_memory(getattr(got, field), getattr(tree, field))


@given(parent_arrays(cycles=False), st.data())
def test_depth_of_is_the_depth_of_every_vertex(parent, data):
    tree = _assemble(parent, None)
    tree = truncate(tree, data.draw(st.integers(0, tree.truncation_depth)))
    for v in range(len(tree)):
        steps, u = 0, v
        while tree.parent[u] >= 0:
            steps, u = steps + 1, int(tree.parent[u])
        assert tree.depth_of(v) == tree.depth[v] == steps
    for bad in (-1, len(tree)):
        with pytest.raises(ValueError):
            tree.depth_of(bad)


def test_assembly_refuses_more_vertices_than_the_vertex_ids_hold():
    parent = np.broadcast_to(np.int64(0), (2 ** 31,))  # a zero-stride view: no memory
    with pytest.raises(DocumentError, match="32-bit"):
        _assemble(parent, None)
