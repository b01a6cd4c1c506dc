"""Property tests of the document loaders: whatever JSON-shaped value a
document holds, a loader returns an object or raises DocumentError, never
another exception."""

import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectree import DocumentError, build_bary, load_map, load_tree, load_weight
from spectree.analysis import parse_analysis_spec

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
