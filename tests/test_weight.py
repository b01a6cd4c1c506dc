import json
import math

import numpy as np
import pytest

from spectree import (DocumentError, bounds, build_bary, constant_weight,
                      custom_weight, dump_weight, geometric_weight, load_weight,
                      reciprocal_depth_weight, vertices_at_level)


def test_constant_weight_values_and_sum():
    t = build_bary(2, 2)
    w = constant_weight(t, 1.0)
    assert w.values.sum() == 7.0
    w = constant_weight(build_bary(1, 3), 2.5)
    assert (w.values == 2.5).all()


def test_constant_weight_rejects_nonpositive():
    t = build_bary(1, 2)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            constant_weight(t, bad)


def test_reciprocal_depth_values():
    t = build_bary(1, 9)
    w = reciprocal_depth_weight(t)
    assert w.values[0] == 1.0
    d3 = int(vertices_at_level(t, 3)[0])
    assert w.values[d3] == 0.25
    d9 = int(vertices_at_level(t, 9)[0])
    assert w.values[d9] == 0.1


def test_reciprocal_depth_decreases_along_branches():
    t = build_bary(2, 5)
    w = reciprocal_depth_weight(t)
    for v in range(1, len(t)):
        assert w.values[v] < w.values[int(t.parent[v])]


def test_geometric_weight_values():
    t = build_bary(1, 4)
    assert (geometric_weight(t, 1.0).values == 1.0).all()
    w = geometric_weight(t, 0.5)
    assert w.values[int(vertices_at_level(t, 4)[0])] == 0.0625
    with pytest.raises(ValueError):
        geometric_weight(t, 0.0)


def test_geometric_overflow_is_refused_without_a_warning():
    t = build_bary(1, 1100)
    with pytest.raises(DocumentError, match="vertex '1024' must be a finite positive real, got inf"):
        load_weight(t, {"family": "geometric", "params": {"ratio": 2}})


def test_geometric_level_mass_on_binary_tree():
    # level size 2^n times weight 4^-n collapses to 2^-n
    t = build_bary(2, 5)
    w = geometric_weight(t, 0.25)
    for n in range(6):
        level = vertices_at_level(t, n)
        assert np.isclose(w.values[level].sum(), 2.0 ** (-n), rtol=1e-14)


def test_bounds_examples():
    t = build_bary(1, 9)
    assert bounds(constant_weight(t, 3.0)) == (3.0, 3.0)
    assert bounds(reciprocal_depth_weight(t)) == (0.1, 1.0)
    t4 = build_bary(1, 4)
    assert bounds(geometric_weight(t4, 0.5)) == (0.0625, 1.0)


def test_bounds_are_attained_envelopes():
    t = build_bary(2, 4)
    rng = np.random.default_rng(3)
    w = custom_weight(t, rng.uniform(0.01, 100.0, len(t)))
    lo, hi = bounds(w)
    assert lo in w.values and hi in w.values
    assert ((w.values >= lo) & (w.values <= hi)).all()


def test_load_weight_all_ones_document():
    t = build_bary(2, 1)
    w = load_weight(t, {"weights": {"0": 1, "1": 1.0, "2": 1.0}})
    assert (w.values == 1.0).all()


def test_load_weight_rejects_zero_naming_vertex():
    t = build_bary(2, 1)
    with pytest.raises(DocumentError, match="'1'"):
        load_weight(t, {"weights": {"0": 1.0, "1": 0.0, "2": 1.0}})


@pytest.mark.parametrize("text, shown", [("-2", "-2.0"), ("-2.5", "-2.5"), ("1e-400", "0.0")])
def test_weight_refusal_shows_the_table_value_as_a_float(text, shown):
    # 1e-400 underflows to 0.0 when the document is read
    doc = json.loads('{"weights": {"0": 1.0, "1": %s, "2": 1.0}}' % text)
    with pytest.raises(DocumentError) as refusal:
        load_weight(build_bary(2, 1), doc)
    assert str(refusal.value) == f"weight at vertex '1' must be a finite positive real, got {shown}"


def test_load_weight_missing_and_unknown_vertices():
    t = build_bary(2, 1)
    with pytest.raises(DocumentError, match="missing vertex"):
        load_weight(t, {"weights": {"0": 1.0, "1": 1.0}})
    with pytest.raises(DocumentError, match="unknown vertex"):
        load_weight(t, {"weights": {"0": 1.0, "1": 1.0, "2": 1.0, "9": 1.0}})
    with pytest.raises(DocumentError, match="must be a number"):
        load_weight(t, {"weights": {"0": 1.0, "1": True, "2": 1.0}})


def test_load_weight_family_documents():
    t = build_bary(1, 4)
    w = load_weight(t, {"family": "geometric", "params": {"ratio": 0.5}})
    assert w.values[-1] == 0.0625
    w = load_weight(t, {"family": "reciprocal_depth"})
    assert w.values[0] == 1.0
    with pytest.raises(DocumentError, match="unknown weight family"):
        load_weight(t, {"family": "exponential"})
    with pytest.raises(DocumentError):
        load_weight(t, {"family": "constant"})


def test_dump_weight_round_trips():
    t = build_bary(2, 2)
    for w in (constant_weight(t, 2.0), reciprocal_depth_weight(t),
              geometric_weight(t, 0.5),
              custom_weight(t, np.linspace(1.0, 2.0, len(t)))):
        again = load_weight(t, dump_weight(w))
        assert np.array_equal(again.values, w.values)


def test_weight_values_are_read_only():
    w = constant_weight(build_bary(1, 2), 1.0)
    with pytest.raises(ValueError):
        w.values[0] = 5.0
