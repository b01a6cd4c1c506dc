"""Finite-depth truncations of rooted trees.

A stored tree is the depth-``D`` truncation of an idealized infinite rooted
tree: every vertex but the root records its parent, and in the idealized
object no vertex is terminal, so leaves are expected only at the truncation
frontier. Vertices are dense integer ids in canonical level order: by depth,
then the children of each vertex of the level above in turn, which within a
level is lexicographic by root path. So vertex 0 is the root, a level is an
id range and a shallower truncation is an id prefix.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Mapping, Sequence

import numpy as np

from .errors import DocumentError

VertexId = int

# the dtype of every per-vertex id array; level_start stays int64
VERTEX_DTYPE = np.int32

# bounds what one generated tree may allocate, so a document cannot ask for
# unbounded memory; deep truncations must taper (see build_bary's branch_until)
_MAX_GENERATED_VERTICES = 5_000_000


@dataclass(frozen=True, eq=False)
class Tree:
    """Immutable rooted tree truncation.

    Attributes
    ----------
    parent:
        ``parent[v]`` is the parent id of ``v``, ``-1`` for the root.
    names:
        Original document ids, or ``None`` for generated trees.
    terminal_gaps:
        Vertices shallower than ``D`` with no children, ascending. They
        violate the terminal-free model and can only come from ad hoc
        documents; they are accepted but marked.
    level_start:
        ``D + 2`` offsets: the vertices at depth ``n`` are the ids
        ``level_start[n]:level_start[n + 1]``. Every level ``0..D`` holds
        at least one vertex.
    """

    parent: np.ndarray
    names: tuple[str, ...] | None
    terminal_gaps: tuple[VertexId, ...]
    level_start: np.ndarray

    def __post_init__(self):
        for array in (self.parent, self.level_start):
            array.setflags(write=False)

    def __len__(self) -> int:
        return int(self.parent.shape[0])

    @property
    def truncation_depth(self) -> int:
        """Depth ``D`` of the stored frontier, the depth of the last vertex."""
        return len(self.level_start) - 2

    @cached_property
    def depth(self) -> np.ndarray:
        """Edge distance to the root of each vertex, nondecreasing along the
        ids; read off ``level_start`` on first use, read-only."""
        levels = np.arange(self.truncation_depth + 1, dtype=VERTEX_DTYPE)
        depth = np.repeat(levels, np.diff(self.level_start))
        depth.setflags(write=False)
        return depth

    def depth_of(self, v: VertexId) -> int:
        """Depth of vertex ``v``, by binary search on ``level_start``."""
        v = _check_vertex(self, v)
        return int(np.searchsorted(self.level_start, v, side="right")) - 1

    def name_of(self, v: VertexId) -> str:
        return self.names[v] if self.names is not None else str(v)

    def vertex_names(self) -> Sequence[str]:
        """``name_of`` every vertex, in id order."""
        return self.names if self.names is not None else [str(v) for v in range(len(self))]

    @cached_property
    def name_order(self) -> np.ndarray:
        """Vertex ids by ascending ``name_of``, sorted on first use; read-only."""
        names = self.vertex_names()  # a numpy string array would be len(self) x longest name
        order = np.array(sorted(range(len(names)), key=names.__getitem__), dtype=VERTEX_DTYPE)
        order.setflags(write=False)
        return order


def _check_vertex(tree: Tree, v: int) -> int:
    v = int(v)
    if not 0 <= v < len(tree):
        raise ValueError(f"vertex id {v} outside the stored vertex set (size {len(tree)})")
    return v


def _assemble(parent: np.ndarray, names: tuple[str, ...] | None) -> Tree:
    """The tree ``parent`` describes (``-1`` at its root), renumbered into
    level order with siblings in input order; ``names`` is renumbered too."""
    parent = np.asarray(parent, dtype=np.int64)
    n = int(parent.shape[0])
    if n == 0:
        raise DocumentError("tree has no vertices")
    if n > np.iinfo(VERTEX_DTYPE).max:
        raise DocumentError(f"tree has {n} vertices, more than 32-bit vertex ids can number")
    if ((parent < -1) | (parent >= n)).any():
        bad = int(np.flatnonzero((parent < -1) | (parent >= n))[0])
        raise ValueError(f"vertex {bad} has parent id outside the vertex set")
    if np.count_nonzero(parent < 0) != 1:
        raise ValueError("internal error: the tree needs exactly one root")

    # vertices grouped by parent, siblings in id order: the root (parent -1)
    # comes first, then the children of v at kids[first[v]:first[v + 1]]
    kids = np.argsort(parent, kind="stable")
    n_kids = np.bincount(parent + 1, minlength=n + 1)[1:]
    first = np.concatenate(([1], 1 + np.cumsum(n_kids)))

    # level n + 1 is the children of level n in level order, which is the
    # canonical order; a vertex never reached sits on a parent cycle
    frontier = kids[:1]
    levels = []
    while frontier.size:
        levels.append(frontier)
        if frontier.size == 1:
            v = frontier[0]
            frontier = kids[first[v]:first[v + 1]]
            continue
        counts = n_kids[frontier]
        shift = np.repeat(first[frontier] - np.cumsum(counts) + counts, counts)
        frontier = kids[shift + np.arange(shift.size)]
    order = np.concatenate(levels)  # new id i is input vertex order[i]
    if order.size < n:
        v = int(np.setdiff1d(np.arange(n), order)[0])
        name = names[v] if names is not None else str(v)
        raise DocumentError(f"cycle detected: vertex '{name}' is not reachable from the root")

    # the root's parent -1 reads new_id[-1]; gaps are childless vertices above level D
    level_start = np.cumsum([0] + [level.size for level in levels], dtype=np.int64)
    new_id = np.full(n + 1, -1, dtype=VERTEX_DTYPE)
    new_id[order] = np.arange(n, dtype=VERTEX_DTYPE)
    gaps = np.flatnonzero(n_kids[order[:level_start[-2]]] == 0)
    return Tree(parent=new_id[parent[order]],
                names=None if names is None else tuple(map(names.__getitem__, order.tolist())),
                terminal_gaps=tuple(gaps.tolist()), level_start=level_start)


def bary_vertex_count(branching: int, depth: int, branch_until: int | None = None,
                      max_vertices: int = _MAX_GENERATED_VERTICES) -> int | None:
    """Vertex count of ``build_bary(branching, depth, branch_until)``, or
    ``None`` when it exceeds ``max_vertices``. No intermediate value exceeds
    ``max_vertices``, so absurd sizes are refused in a few steps."""
    # a unary tree is one chain from the root, whatever branch_until says
    bu = 0 if branching == 1 else depth if branch_until is None else min(branch_until, depth)
    total = width = 1
    for _ in range(bu):
        if width > (max_vertices - total) // branching:
            return None
        width *= branching
        total += width
    # levels bu + 1 .. depth are single-child chains as wide as level bu
    if depth - bu > (max_vertices - total) // width:
        return None
    return total + (depth - bu) * width


def bary_level_start(branching: int, depth: int, branch_until: int | None = None) -> np.ndarray:
    """The ``level_start`` of ``build_bary(branching, depth, branch_until)``,
    formed without the tree: level ``n`` holds
    ``branching ** min(n, branch_until)`` vertices. Refuses what
    ``build_bary`` refuses, before allocating."""
    branching = int(branching)
    depth = int(depth)
    if branching < 1:
        raise ValueError("branching must be >= 1; branching 0 would make the root terminal")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    bu = depth if branch_until is None else min(int(branch_until), depth)
    if bu < 0:
        raise ValueError("branch_until must be >= 0")
    if bary_vertex_count(branching, depth, bu) is None:
        raise ValueError(
            f"refusing to materialize more than {_MAX_GENERATED_VERTICES} vertices; "
            "taper deep truncations with branch_until")
    widths = branching ** np.minimum(np.arange(depth + 1, dtype=np.int64), bu)
    return np.cumsum(np.append(0, widths))


def build_bary(branching: int, depth: int, branch_until: int | None = None) -> Tree:
    """Uniform b-ary truncation: every vertex above the frontier has
    ``branching`` children and all leaves sit at ``depth``.

    ``branch_until=m`` stops the branching at depth ``m`` and continues with
    single-child chains down to the frontier. The result is still a valid
    terminal-free truncation, and it keeps deep trees at a tractable vertex
    count (a uniform binary tree of depth 100 would need ~2**101 vertices).
    """
    level_start = bary_level_start(branching, depth, branch_until)
    # ids run in level order: in the complete b-ary part, depths 0..bu, v hangs
    # below (v - 1) // b, and below it each chain vertex one level width back
    bu = int(depth if branch_until is None else min(branch_until, depth))
    n, width = int(level_start[-1]), int(level_start[-1] - level_start[-2])
    m = int(level_start[bu + 1])  # vertices of the complete part
    parent = np.arange(-width, n - width, dtype=VERTEX_DTYPE)
    parent[:m] = np.arange(-1, m - 1, dtype=VERTEX_DTYPE) // int(branching)
    return Tree(parent=parent, names=None, terminal_gaps=(), level_start=level_start)


def load_tree(document: Mapping) -> Tree:
    """Build a tree from a ``{"vertices": [{"id", "parent"}, ...]}`` document.

    An entry holds no other key. The root is the unique entry with a null
    parent. Vertex ids are assigned in canonical level order, siblings in
    document order. Internal vertices without children are accepted but
    recorded in ``terminal_gaps``.
    """
    if not isinstance(document, Mapping) or "vertices" not in document:
        raise DocumentError('tree document must be an object with a "vertices" array')
    entries = document["vertices"]
    if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)) or not entries:
        raise DocumentError('tree document field "vertices" must be a non-empty array')

    if fast := _parents(entries):  # any other document takes the loop, which names its fault
        return _assemble(fast[1], names=tuple(fast[0]))
    ids: list[str] = []
    parents: list[str | None] = []
    seen: dict[str, int] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, Mapping) or "id" not in entry or "parent" not in entry:
            raise DocumentError(f'tree document vertex #{i} must carry "id" and "parent" fields')
        vid, par = entry["id"], entry["parent"]
        if not isinstance(vid, str):
            raise DocumentError(f'tree document vertex #{i}: "id" must be a string')
        if par is not None and not isinstance(par, str):
            raise DocumentError(f"tree document vertex '{vid}': \"parent\" must be a string or null")
        document_keys(entry, ("id", "parent"), f"tree document vertex '{vid}'")
        if vid in seen:
            raise DocumentError(f"duplicate vertex id '{vid}'")
        seen[vid] = i
        ids.append(vid)
        parents.append(par)

    roots = [i for i, p in enumerate(parents) if p is None]
    if not roots:
        raise DocumentError("no root: every vertex names a parent")
    if len(roots) > 1:
        raise DocumentError(f"multiple roots: '{ids[roots[0]]}' and '{ids[roots[1]]}'")

    for vid, par in zip(ids, parents):
        if par is not None and par not in seen:
            raise DocumentError(f"vertex '{vid}' references unknown parent '{par}'")

    parent = np.array([seen.get(par, -1) for par in parents], dtype=np.int64)
    return _assemble(parent, names=tuple(ids))


def _parents(entries: Sequence) -> tuple[list[str], np.ndarray] | None:
    """The ids and parent ids of a valid vertex list by C-level passes, else None."""
    if set(map(type, entries)) != {dict} or set(map(len, entries)) != {2}:
        return None
    try:  # a KeyError is a missing field or an unknown parent
        ids, parents = (list(map(itemgetter(key), entries)) for key in ("id", "parent"))
        seen = dict(zip(ids, range(len(ids)))) if set(map(type, ids)) == {str} else {}
        if (len(seen) < len(ids) or not set(map(type, parents)) <= {str, type(None)}
                or parents.count(None) != 1):
            return None
        seen[None] = -1
        return ids, np.fromiter(map(seen.__getitem__, parents), np.int64, len(parents))
    except KeyError:
        return None


def dump_tree(tree: Tree) -> dict:
    """Serialize to the document format accepted by :func:`load_tree`."""
    names = tree.vertex_names()
    return {"vertices": [{"id": names[v], "parent": None if par < 0 else names[par]}
                         for v, par in enumerate(tree.parent.tolist())]}


def table_values(tree: Tree, document: Mapping, what: str, field: str) -> list:
    """The values of the ``{vertex-id: value}`` table ``document[field]`` in
    vertex-id order. The table must name every vertex of ``tree`` and no
    other; ``what`` names the document kind in the error messages."""
    table = document[field]
    if not isinstance(table, Mapping):
        raise DocumentError(f'{what} document field "{field}" must be an object')
    names = tree.vertex_names()
    try:  # one lookup per vertex when the table is right
        values = list(map(table.__getitem__, names))
        if len(table) == len(names):
            return values
    except KeyError:
        pass
    missing = [name for name in names if name not in table]
    if len(table) > len(names) - len(missing):
        known = set(names)
        unknown = next(k for k in table if k not in known)
        raise DocumentError(f"{what} document names unknown vertex '{unknown}'")
    raise DocumentError(f"{what} document is missing vertex '{missing[0]}'")


def document_real(value, what: str) -> float:
    """``value``, a number read from a document, as a float; ``what`` names
    it in the error. Booleans, non-numbers and integers beyond the
    floating-point range are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DocumentError(f"{what} is beyond the floating-point range") from None


def document_int(value, what: str, low: int = 0) -> int:
    """``value``, an integer of at least ``low`` read from a document;
    ``what`` names it in the error. Booleans and non-integers are refused."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise DocumentError(f"{what} must be an integer >= {low}, got {value!r}")
    return value


def document_keys(document: Mapping, allowed: tuple[str, ...], what: str) -> None:
    """Refuse a key of ``document`` outside ``allowed``; ``what`` names the
    document in the error."""
    for key in document:
        if key not in allowed:
            raise DocumentError(f"{what} has unknown key {key!r}; allowed keys: "
                                f"{', '.join(allowed) or 'none'}")


def vertices_at_level(tree: Tree, n: int) -> np.ndarray:
    """Vertices at depth exactly ``n`` in canonical (lexicographic) order.

    Levels beyond the truncation depth are empty, not an error.
    """
    n = int(n)
    if n < 0:
        raise ValueError("level must be >= 0")
    if n > tree.truncation_depth:
        return np.empty(0, dtype=VERTEX_DTYPE)
    return np.arange(tree.level_start[n], tree.level_start[n + 1], dtype=VERTEX_DTYPE)


def truncate(tree: Tree, new_depth: int) -> Tree:
    """Restrict the stored truncation to depth ``new_depth``: the vertices of
    depth at most ``new_depth`` are an id prefix, so the arrays of the result
    are read-only prefix views of the arrays of ``tree``."""
    new_depth = int(new_depth)
    if not 0 <= new_depth <= tree.truncation_depth:
        raise ValueError(
            f"truncation depth {new_depth} outside [0, {tree.truncation_depth}]")
    if new_depth == tree.truncation_depth:
        return tree
    n = int(tree.level_start[new_depth + 1])
    # a kept vertex above the new frontier keeps all its children, so the
    # gaps are the old ones above the new frontier
    gaps = tree.terminal_gaps[:bisect.bisect_left(tree.terminal_gaps, tree.level_start[new_depth])]
    return Tree(parent=tree.parent[:n],
                names=None if tree.names is None else tree.names[:n], terminal_gaps=gaps,
                level_start=tree.level_start[:new_depth + 2])
