import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tree
from ibntrees.trees import Tree, check_flow


def test_constructor_depth_recurrence():
    # two children of the root, then a path of four edges below the first
    t = Tree([-1, 0, 0, 1, 3, 4, 5], [0, 1, 1, 2, 3, 4, 5])
    v, x = 1, 6
    assert t.depth(v) == 1
    assert len(t.level_set(1)) == 2
    assert t.depth(x) == 5
    with pytest.raises(ValueError):
        Tree([-1, 0, 0, 1], [0, 1, 1, 3])  # depth must be the parent's plus one
    with pytest.raises(ValueError):
        Tree([0, 0], [0, 1])  # vertex 0 must be the root


def test_constructor_unknown_parent():
    with pytest.raises(KeyError):
        Tree([-1, 7], [0, 1])
    with pytest.raises(KeyError):
        Tree([-1, 0, 2], [0, 1, 2])  # a parent id must be below the child's


def test_level_set_root_and_binary():
    # ids in breadth-first order: the children of v are 2v+1 and 2v+2
    t = Tree([-1] + [(v - 1) // 2 for v in range(1, 31)],
             [(v + 1).bit_length() - 1 for v in range(31)])
    assert t.level_set(0) == [0]
    assert len(t.level_set(3)) == 8
    assert t.level_set(9) == []


def test_is_cutset_levels_and_degenerate():
    t = random_tree(3, 5)
    n = 3
    level_edges = t.level_set(n)
    assert t.is_cutset(level_edges, 5)
    assert not t.is_cutset([], 5)
    # an edge plus its child edge hits one ray twice
    deep = max(range(t.n_vertices), key=t.depth)
    rest = [v for v in t.level_set(t.depth(deep)) if v != deep]
    assert not t.is_cutset([deep, t.parent(deep)] + rest, t.depth(deep))


def test_is_cutset_frontier_precondition():
    t = random_tree(5, 4)
    deep = max(range(t.n_vertices), key=t.depth)
    with pytest.raises(ValueError):
        t.is_cutset([deep], t.depth(deep) - 1)


def test_check_flow_zero_and_path():
    t = Tree([-1, 0, 1, 2, 3], [0, 1, 2, 3, 4])
    zero = np.zeros(t.n_vertices)
    res = check_flow(t, zero)
    assert res.valid and res.strength == 0.0
    unit = np.ones(t.n_vertices)
    cap = np.full(t.n_vertices, 1.5)
    res = check_flow(t, unit, cap)
    assert res.valid and res.strength == 1.0
    res = check_flow(t, unit, np.full(t.n_vertices, 0.5))
    assert not res.valid and "capacity" in res.reason


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), vertex_frac=st.floats(0.1, 0.9), eps=st.floats(1e-6, 0.5))
def test_check_flow_rejects_perturbations(seed, vertex_frac, eps):
    t = random_tree(seed, 4)
    # a valid flow: route 1 unit along leftmost children from the root
    theta = np.zeros(t.n_vertices)
    v = 0
    while t.children(v):
        v = t.children(v)[0]
        theta[v] = 1.0
    assert check_flow(t, theta).valid
    internal = [u for u in range(1, t.n_vertices) if t.children(u) and theta[u] > 0]
    if not internal:
        return
    u = internal[int(vertex_frac * len(internal)) % len(internal)]
    theta[u] += eps
    assert not check_flow(t, theta).valid


def test_serialization_round_trip():
    t = random_tree(11, 5)
    text = t.to_text()
    back = Tree.from_text(text)
    assert back.n_vertices == t.n_vertices
    assert back.to_text() == text
    assert text.splitlines()[0] == "0 - 0"


def test_from_text_rejects_bad_ids():
    with pytest.raises(ValueError):
        Tree.from_text("0 - 0\n2 0 1\n")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), max_depth=st.integers(1, 7), extra=st.integers(0, 30))
def test_text_round_trip_keeps_arrays(seed, max_depth, extra):
    t = random_tree(seed, max_depth, extra)
    back = Tree.from_text(t.to_text())
    assert np.array_equal(back.parent_array(), t.parent_array())
    assert np.array_equal(back.depth_array(), t.depth_array())


def test_levels_and_sibling_groups_out_of_id_order():
    # level 2 is 3, 4, 5 with parents 2, 1, 2: siblings are not contiguous in id order
    t = Tree([-1, 0, 0, 2, 1, 2, 4, 3, 5, 3], [0, 1, 1, 2, 2, 2, 3, 3, 3, 3])
    assert t.level(2).tolist() == [3, 4, 5] and t.height() == 3
    ids, starts, parents = t.siblings(2)
    assert ids.tolist() == [4, 3, 5] and starts.tolist() == [0, 1] and parents.tolist() == [1, 2]
    ids, starts, parents = t.siblings(3)
    assert ids.tolist() == [7, 9, 6, 8] and starts.tolist() == [0, 2, 3]
    assert parents.tolist() == [3, 4, 5]
    assert [t.children(v) for v in range(6)] == [[1, 2], [4], [3, 5], [7, 9], [6], [8]]
    assert t.n_children_array().tolist() == [2, 1, 2, 2, 1, 1, 0, 0, 0, 0]
    assert t.level_sizes().tolist() == [1, 2, 3, 4]
    assert t.level(4).tolist() == []


def test_sweep_kernels_match_per_vertex_loops():
    t = Tree([-1, 0, 0, 2, 1, 2, 4, 3, 5, 3], [0, 1, 1, 2, 2, 2, 3, 3, 3, 3])
    d = t.depth_array()
    values = 10.0 * np.arange(10)
    for N, start in ((3, 1), (3, 2), (2, 1), (2, 2)):
        out = np.full(10, np.nan)
        out[0], out[t.level(1)] = 5.0, -1.0
        ref = out.tolist()
        for v in range(1, 10):  # parents have smaller ids
            if start <= d[v] <= N:
                ref[v] = ref[t.parent(v)] + values[v]
        assert t.sweep_down(np.add, out, values, N, start) is out
        np.testing.assert_array_equal(out, ref)

    for N in (3, 2):
        out = values.copy()
        ref = out.tolist()
        for v in reversed(range(10)):
            if d[v] < N and t.children(v):
                ref[v] = sum(ref[c] for c in t.children(v)) + 0.5
        depths = []

        def fold(vals, ids, starts):
            depths.append(int(d[ids[0]]))
            assert np.array_equal(vals, out[ids])
            return np.add.reduceat(vals, starts) + 0.5

        assert t.sweep_up(out, N, fold) is out
        assert out.tolist() == ref and depths == list(range(N, 0, -1))


@pytest.mark.parametrize("text", ["", "\n \n", "1 - 0\n", "0 - 0\n1 0\n", "0 - 0\n1 0 1 1\n",
                                  "0 - 0\n1 x 1\n", "0 - 0\n1 - 1\n", "0 - 0\n1 0 1.5\n",
                                  "0 - 0\n1 0 99999999999999999999\n", "0 - 0\n1 0 1\n\u00e9\n"])
def test_from_text_rejects_malformed(text):
    with pytest.raises(ValueError):
        Tree.from_text(text)


def test_from_text_unknown_parent():
    for text in ("0 - 0\n1 -1 0\n", "0 - 0\n1 1 1\n", "0 - 0\n1 0 1\n2 5 2\n"):
        with pytest.raises(KeyError):
            Tree.from_text(text)


def test_from_text_skips_blank_lines_and_spacing():
    t = Tree.from_text("\n0 - 0\r\n\n  1\t0 1  \n2 1 2")
    assert t.parent_array().tolist() == [-1, 0, 1]
    assert t.to_text() == "0 - 0\n1 0 1\n2 1 2\n"
