import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import is_cutset, random_tree, text_rows_oracle, tree_text_oracle
from ibntrees import generators as gen
from ibntrees.trees import _READ_CHUNK, _TEXT_CHUNK, Tree, _place, _text_rows, check_flow


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
    assert is_cutset(t, level_edges, 5)
    assert not is_cutset(t, [], 5)
    # an edge plus its child edge hits one ray twice
    deep = max(range(t.n_vertices), key=t.depth)
    rest = [v for v in t.level_set(t.depth(deep)) if v != deep]
    assert not is_cutset(t, [deep, t.parent(deep)] + rest, t.depth(deep))


def test_is_cutset_frontier_precondition():
    t = random_tree(5, 4)
    deep = max(range(t.n_vertices), key=t.depth)
    with pytest.raises(ValueError):
        is_cutset(t, [deep], t.depth(deep) - 1)


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


def test_to_text_rows_span_chunks():
    # 32766 rows below the root: seven full chunks, then a partial one
    t = gen.binary_family().build(14)
    assert 7 * _TEXT_CHUNK < t.n_vertices - 1 < 8 * _TEXT_CHUNK
    want = "0 - 0\n" + "".join(f"{v} {t.parent(v)} {t.depth(v)}\n" for v in range(1, t.n_vertices))
    assert t.to_text() == want


def test_from_text_rejects_bad_ids():
    # the blank lines must not shift the id the message names
    for text in ("0 - 0\n2 0 1\n", "0 - 0\n\n\n2 0 1\n"):
        with pytest.raises(ValueError, match="expected vertex id 1, got 2"):
            Tree.from_text(text)


def test_write_text_file_round_trip(tmp_path):
    t = gen.binary_family().build(13)  # 16382 rows below the root: four chunks
    path = tmp_path / "t.txt"
    with open(path, "w") as fh:
        t.write_text(fh)
    assert path.read_bytes() == t.to_text().encode()
    with open(path) as fh:
        back = Tree.read_text(fh)
    assert np.array_equal(back.parent_array(), t.parent_array())
    assert np.array_equal(back.depth_array(), t.depth_array())


def test_read_text_file_with_crlf_and_blank_lines(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"\r\n0 - 0\r\n\r\n1 0 1\r\n  \r\n2 1 2\r\n\r\n")
    with open(path) as fh:
        t = Tree.read_text(fh)
    assert t.to_text() == "0 - 0\n1 0 1\n2 1 2\n"


def test_read_text_past_a_chunk_of_blank_lines(tmp_path):
    # a chunk of blank lines parses to no rows; the tree goes on after it,
    # and an id error past the first chunk names its own vertex id
    path = tmp_path / "t.txt"
    path.write_text("0 - 0\n1 0 1\n" + "\n" * (2 * _READ_CHUNK + 5) + "2 1 2\n")
    with open(path) as fh:
        assert Tree.read_text(fh).to_text() == "0 - 0\n1 0 1\n2 1 2\n"
    rows = "".join(f"{v} {v - 1} {v}\n" for v in range(1, _READ_CHUNK + 9))
    with pytest.raises(ValueError, match=f"expected vertex id {_READ_CHUNK + 9}, got 7"):
        Tree.from_text("0 - 0\n" + rows + "7 0 1\n")


def test_write_text_memory_is_bounded_by_the_chunk(tmp_path):
    t = gen.three_one_stretched(78)  # 90115 vertices, 1.3 MB of text
    with open(tmp_path / "t.txt", "w") as fh:
        tracemalloc.start()
        try:
            t.write_text(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1 << 20, peak  # 4.8 MB when the whole text was joined first


# Shrinking a random tree's seed finds no simpler tree, only spends minutes
# before the failure is reported; these two tests skip that phase.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(seed=st.integers(0, 10 ** 6), max_depth=st.integers(1, 7), extra=st.integers(0, 30))
def test_text_round_trip_keeps_arrays(seed, max_depth, extra):
    t = random_tree(seed, max_depth, extra)
    back = Tree.from_text(t.to_text())
    assert np.array_equal(back.parent_array(), t.parent_array())
    assert np.array_equal(back.depth_array(), t.depth_array())


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(seed=st.integers(0, 10 ** 6), max_depth=st.integers(1, 12), extra=st.integers(0, 200))
def test_to_text_matches_the_percent_oracle(seed, max_depth, extra):
    t = random_tree(seed, max_depth, extra, ensure_depth=seed % 2 == 0)
    assert t.to_text() == tree_text_oracle(t)


def test_text_rows_cross_every_digit_boundary():
    edges = [0, 1, 9]
    for k in range(1, 19):
        edges += [10 ** k - 1, 10 ** k, 10 ** k + 1]
    edges += [2 ** 63 - 2, 2 ** 63 - 1]
    x = np.array(edges, dtype=np.int64)
    # every value in every column, next to numbers of other widths
    for cols in ((x, np.roll(x, 1), np.roll(x, 7)), (x[::-1], x, np.zeros_like(x))):
        assert _text_rows(*cols) == text_rows_oracle(*cols)
    # each width alone in a chunk, the uint32 path up to 9 digits and int64 past it
    for v in edges:
        col = np.full(5, v, dtype=np.int64)
        assert _text_rows(col, col, col) == f"{v} {v} {v}\n" * 5


@pytest.mark.parametrize("rows", [_TEXT_CHUNK - 1, _TEXT_CHUNK, _TEXT_CHUNK + 1])
def test_to_text_at_the_chunk_edges(rows):
    n = rows + 1
    path = Tree(np.arange(-1, n - 1), np.arange(n))
    assert path.to_text() == tree_text_oracle(path)
    assert path.to_text().count("\n") == n


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


@settings(max_examples=200, deadline=None)
@given(level=st.lists(st.integers(0, 60), min_size=1, max_size=8, unique=True), data=st.data())
def test_place_finds_ids_with_repeats_in_any_order(level, data):
    # repeats of as many ids as the level holds once passed the test for the
    # whole level in order: _place([3, 9], [9, 9]) gave [0, 1]
    assert _place(np.array([3, 9]), np.array([9, 9])).tolist() == [1, 1]
    assert _place(np.array([3, 5, 9]), np.array([3, 3, 9])).tolist() == [0, 0, 2]
    level = np.array(sorted(level))
    ids = np.array(data.draw(st.lists(st.sampled_from(level.tolist()), min_size=1, max_size=10)))
    assert _place(level, ids).tolist() == [level.tolist().index(v) for v in ids.tolist()]


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
        ref = np.where(d == N, 7.0, -2.0).tolist()  # frontier 7 at depth N, dead -2 elsewhere
        for v in reversed(range(10)):
            if d[v] < N and t.children(v):
                ref[v] = sum(ref[c] for c in t.children(v)) + 0.5
        depths = []

        def fold(vals, ids, starts):  # the children's values are final when they fold
            depths.append(int(d[ids[0]]))
            assert np.array_equal(vals, np.array(ref)[ids])
            return np.add.reduceat(vals, starts) + 0.5

        out = t.sweep_up(N, -2.0, 7.0, fold)
        assert out.tolist() == ref and depths == list(range(N, 0, -1))


def test_sweeps_check_their_depth():
    t = Tree([-1, 0, 0, 2, 1, 2, 4, 3, 5, 3], [0, 1, 1, 2, 2, 2, 3, 3, 3, 3])
    for N in (0, t.height() + 1):
        with pytest.raises(ValueError, match=f"^tree must reach depth N={N}$"):
            t.sweep_down(np.add, np.zeros(10), np.ones(10), N)
        with pytest.raises(ValueError, match=f"^tree must reach depth N={N}$"):
            t.sweep_up(N, 0.0, 1.0, lambda vals, ids, starts: np.add.reduceat(vals, starts))


@pytest.mark.parametrize("text", ["", "\n \n", "1 - 0\n", "0 - 0\n1 0\n", "0 - 0\n1 0 1 1\n",
                                  "0 - 0\n1 x 1\n", "0 - 0\n1 - 1\n", "0 - 0\n1 0 1.5\n",
                                  "0 - 0\n1 0 99999999999999999999\n", "0 - 0\n1 0 1\n\u00e9\n"])
def test_from_text_rejects_malformed(text):
    with pytest.raises(ValueError):
        Tree.from_text(text)


def test_malformed_line_error_names_the_file_line(tmp_path):
    # line 9001 lies in the second read chunk; the blank lines before it count
    lines = ["0 - 0\n", "\n", "\n"] + [f"{v} {v - 1} {v}\n" for v in range(1, 10001)]
    assert 9001 > _READ_CHUNK
    for bad, want in (("x", "could not convert string 'x' to int64 at line 9001, column 3"),
                      ("", "the number of columns changed from 3 to 2 at line 9001")):
        lines[9000] = f"8998 8997 {bad}\n"
        path = tmp_path / "t.txt"
        path.write_text("".join(lines))
        with open(path) as fh, pytest.raises(ValueError, match=want + r"\b") as err:
            Tree.read_text(fh)
        assert "usecols" not in str(err.value)
    # the last line of the first chunk, then the first line of the second
    for good in (_READ_CHUNK - 1, _READ_CHUNK):
        rows = "".join(f"{v} {v - 1} {v}\n" for v in range(1, good + 1))
        with pytest.raises(ValueError, match=f"at line {good + 2}\\b"):
            Tree.from_text("0 - 0\n" + rows + "1 2\n")
    # after blank lines of a last, short chunk
    with pytest.raises(ValueError, match="at line 5\\b"):
        Tree.from_text("0 - 0\n1 0 1\n\n\n2 1 2.5\n3 2 3\n")


def test_root_line_error_names_the_file_line():
    with pytest.raises(ValueError, match=r"^line 3 must be the root: '0 - 0'$"):
        Tree.from_text("\n\n1 - 0\n")
    for text in ("", "\n \n\t\n"):
        with pytest.raises(ValueError, match="^the tree file is empty"):
            Tree.from_text(text)


def test_from_text_unknown_parent():
    for text in ("0 - 0\n1 -1 0\n", "0 - 0\n1 1 1\n", "0 - 0\n1 0 1\n2 5 2\n"):
        with pytest.raises(KeyError):
            Tree.from_text(text)


def test_from_text_skips_blank_lines_and_spacing():
    t = Tree.from_text("\n0 - 0\r\n\n  1\t0 1  \n2 1 2")
    assert t.parent_array().tolist() == [-1, 0, 1]
    assert t.to_text() == "0 - 0\n1 0 1\n2 1 2\n"
