"""Property tests of the document loaders: whatever JSON-shaped value a
document holds, a loader returns an object or raises DocumentError, never
another exception."""

import math
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectree import DocumentError, Tree, Weight, build_bary, load_map, load_tree, load_weight
from spectree.analysis import parse_analysis_spec
from spectree.tree import _assemble, document_keys, document_real
from spectree.weight import _family_weight, _validated, parse_family

TREE = build_bary(2, 2)  # ids and names "0" .. "6"
NAMES = list(TREE.vertex_names())
BIG = 10 ** 400

numbers = (st.integers(-3, 8) | st.floats(allow_nan=False) | st.booleans()
           | st.integers(10 ** 300, BIG) | st.integers(-BIG, -10 ** 300)
           # what the JSON reader makes of 1e400 and -1e400
           | st.sampled_from([math.inf, -math.inf]))
scalars = st.none() | numbers | st.text(max_size=4) | st.sampled_from(NAMES)
json_values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8)


def paths(doc, prefix=()):
    """Every place in ``doc`` a value sits, the whole document included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from paths(value, prefix + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = replaced(doc[path[0]], path[1:], value)
    return copy


def mutants(*templates):
    """Valid documents with up to two of their values replaced by any JSON
    value, numbers most often."""
    values = numbers | json_values
    return st.sampled_from(templates).flatmap(lambda doc: st.lists(
        st.tuples(st.sampled_from(list(paths(doc))), values), max_size=2).map(
        lambda edits: _apply(doc, edits)))


def _apply(doc, edits):
    for path, value in edits:
        try:
            doc = replaced(doc, path, value)
        except (KeyError, IndexError, TypeError):  # an earlier edit removed the place
            pass
    return doc


TABLE = {name: 1.0 for name in NAMES}
tree_docs = mutants({"vertices": [{"id": name, "parent": None if v == 0 else NAMES[(v - 1) // 2]}
                                  for v, name in reversed(list(enumerate(NAMES)))]})
weight_docs = mutants({"family": "constant", "params": {"value": 1}},
                      {"family": "geometric", "params": {"ratio": 0.5}},
                      {"family": "reciprocal_depth"}, {"weights": TABLE})
map_docs = mutants({"builtin": "level_shift", "params": {"k": 1}}, {"builtin": "parent"},
                   {"builtin": "depth_square"}, {"map": {name: "0" for name in NAMES}})
spec_docs = mutants(*({
    "schema_version": 1, "tree": tree, "weight": weight, "map": {"builtin": "level_shift",
                                                                 "params": {"k": 1}},
    "p": 2, "depth_ladder": [1, 2], "schatten_exponents": [1, 2.5], "seed": 0,
    "oracle": {"enabled": True, "max_vertices": 10},
    "tolerances": {"isometry_ratio": 1e-12, "compactness_decay_ratio": 0.1},
} for tree in ({"generator": "bary", "branching": 2, "branch_until": 1}, {"file": "test_tree.py"})
    for weight in ({"family": "constant", "params": {"value": 1}}, {"weights": TABLE})))


def load_or_refuse(load, *args):
    try:
        load(*args)
    except DocumentError:
        pass


@given(tree_docs)
def test_load_tree_returns_a_tree_or_refuses(doc):
    load_or_refuse(load_tree, doc)


@given(weight_docs)
def test_load_weight_returns_a_weight_or_refuses(doc):
    load_or_refuse(load_weight, TREE, doc)


@given(map_docs)
def test_load_map_returns_a_map_or_refuses(doc):
    load_or_refuse(load_map, TREE, doc)


@given(spec_docs)
def test_parse_analysis_spec_returns_a_spec_or_refuses(doc):
    load_or_refuse(parse_analysis_spec, doc, Path(__file__).parent)


@pytest.mark.parametrize("load, doc", [
    (load_weight, {"family": "constant", "params": {"value": -1}}),
    (load_weight, {"family": "geometric", "params": {"ratio": 0}}),
    (load_map, {"builtin": "level_shift", "params": {"k": -1}}),
], ids=["negative_constant", "zero_ratio", "negative_shift"])
def test_out_of_range_parameters_are_document_errors(load, doc):
    with pytest.raises(DocumentError):
        load(TREE, doc)


# The loaders before their C-level passes, verbatim, as references: whatever
# the document, the loaders must return what these return or refuse it with
# the same exception and message.

def reference_load_tree(document: Mapping) -> Tree:
    if not isinstance(document, Mapping) or "vertices" not in document:
        raise DocumentError('tree document must be an object with a "vertices" array')
    entries = document["vertices"]
    if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)) or not entries:
        raise DocumentError('tree document field "vertices" must be a non-empty array')

    ids: list[str] = []
    parents: list[str | None] = []
    seen: dict[str, int] = {}
    for i, entry in enumerate(entries):
        # the exact-type test spares JSON objects the slow ABC check
        if (type(entry) is not dict and not isinstance(entry, Mapping)
                or "id" not in entry or "parent" not in entry):
            raise DocumentError(f'tree document vertex #{i} must carry "id" and "parent" fields')
        vid, par = entry["id"], entry["parent"]
        if not isinstance(vid, str):
            raise DocumentError(f'tree document vertex #{i}: "id" must be a string')
        if par is not None and not isinstance(par, str):
            raise DocumentError(f"tree document vertex '{vid}': \"parent\" must be a string or null")
        if len(entry) != 2:
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


def reference_table_values(tree: Tree, document: Mapping, what: str, field: str) -> list:
    table = document[field]
    if not isinstance(table, Mapping):
        raise DocumentError(f'{what} document field "{field}" must be an object')
    names = tree.vertex_names()
    try:  # one lookup per vertex when the table is right
        values = [table[name] for name in names]
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


def reference_load_weight(tree: Tree, document: Mapping) -> Weight:
    if not isinstance(document, Mapping):
        raise DocumentError("weight document must be an object")
    if "family" in document:
        return _family_weight(tree, *parse_family(document))
    if "weights" in document:
        document_keys(document, ("weights",), "weight document")
        raw = reference_table_values(tree, document, "weight", "weights")
        for v, value in enumerate(raw):
            if type(value) is not float:  # floats, most of a JSON table, need no check
                document_real(value, f"weight at vertex '{tree.name_of(v)}'")
        return _validated(tree, np.array(raw, dtype=np.float64), "custom", None)
    raise DocumentError('weight document needs a "family" or a "weights" field')


def outcome(load, *args):
    """What ``load(*args)`` returns, as comparable fields, or the type and
    message of what it raises."""
    try:
        got = load(*args)
    except Exception as exc:  # the type is compared too
        return type(exc), str(exc)
    if isinstance(got, Tree):
        return (got.parent.tolist(), got.names, got.level_start.tolist(), got.terminal_gaps)
    return got.values.tolist(), got.family, got.params


_NOT_STRINGS = [0, 1.5, True, ["a"], {"a": 1}]
_FAULTS = ["one_key", "three_keys", "renamed_key", "mapping", "id_type", "parent_type",
           "duplicate", "no_root", "two_roots", "unknown_parent"]


@st.composite
def faulty_tree_docs(draw):
    """A shuffled tree document with up to two faults, each at a drawn entry."""
    n = draw(st.integers(1, 8))
    names = draw(st.lists(st.text(max_size=2), min_size=n, max_size=n, unique=True))
    parent = [-1] + [draw(st.integers(0, v - 1)) for v in range(1, n)]
    entries = draw(st.permutations([{"id": names[v], "parent": names[parent[v]] if v else None}
                                    for v in range(n)]))
    for fault in draw(st.lists(st.sampled_from(_FAULTS), min_size=1, max_size=2)):
        i = draw(st.integers(0, n - 1))
        entry = dict(entries[i])
        if fault == "one_key":
            entry.pop(draw(st.sampled_from(["id", "parent"])), None)
        elif fault == "three_keys":
            entry["x"] = 0
        elif fault == "renamed_key":
            entry["parents"] = entry.pop("parent", None)
        elif fault == "mapping":
            entry = MappingProxyType(entry)
        elif fault in ("id_type", "parent_type"):
            entry[fault[:-5]] = draw(st.sampled_from(_NOT_STRINGS))
        elif fault == "duplicate":
            entry["id"] = names[(i + draw(st.integers(1, n))) % n]
        elif fault == "no_root":
            entries = [e | {"parent": names[-1]} if e.get("parent", "") is None else e
                       for e in entries]
            entry = entries[i]
        elif fault == "two_roots":
            entry["parent"] = None
        else:
            entry["parent"] = "unknown"  # longer than any drawn name
        entries[i] = entry
    return {"vertices": entries}


@settings(max_examples=400)
@given(faulty_tree_docs() | tree_docs)
def test_load_tree_matches_the_reference_loader(doc):
    assert outcome(load_tree, doc) == outcome(reference_load_tree, doc)


_WEIGHT_FAULTS = [3, True, False, 10 ** 400, -10 ** 400, "1.0", None, [1.0], 0.0, -1.0,
                  math.inf, "missing", "unknown"]
_FILE_TREE = load_tree({"vertices": [
    {"id": name, "parent": None if v == 0 else "abc"[(v - 1) // 3]} for v, name in enumerate("abcdefgh")]})


@given(st.lists(st.floats(1e-3, 1e3), min_size=8, max_size=8),
       st.lists(st.tuples(st.integers(0, 7), st.sampled_from(_WEIGHT_FAULTS)), max_size=2),
       st.permutations(range(8)))
def test_load_weight_matches_the_reference_loader(values, faults, order):
    names = _FILE_TREE.vertex_names()
    table = {names[v]: values[v] for v in order}
    for v, fault in faults:
        if fault == "missing":
            table.pop(names[v], None)
        elif fault == "unknown":
            table["z" * (v + 1)] = 1.0
        else:
            table[names[v]] = fault
    doc = {"weights": table}
    assert outcome(load_weight, _FILE_TREE, doc) == outcome(reference_load_weight, _FILE_TREE, doc)
