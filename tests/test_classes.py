import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (degrees_oracle, hash_cons, level_reader_oracle,
                      log_effective_conductance_symmetric, min_cut_symmetric, survival_symmetric,
                      symmetric_table_oracle, three_one_gathers_oracle, three_one_lattice)
from ibntrees import classes
from ibntrees import flowcut as fc
from ibntrees import generators as gen
from ibntrees import percolation as pc
from ibntrees import trees
from ibntrees import walks
from ibntrees.trees import Tree

LAMS = (0.2, 0.5, 0.8)


def sweeps(table, N):
    """Min-cut, survival, log C_eff and conductance bound at every rate of
    LAMS and frontier of the table, each an array [rate, frontier]."""
    n = np.arange(1, N + 1, dtype=float)
    laws = [pc.PercolationLaw(lam) for lam in LAMS]
    return (classes.log_min_cut(table, LAMS),
            classes.survival(table, [law.log_p(n) for law in laws]),
            classes.log_conductance(table, [-np.power(n, lam) for lam in LAMS]),
            pc._bound(classes.log_conductance(
                table, [pc._comparison_log_conductances(law, N) for law in laws])))


def materialized(t, N):
    """The same four quantities by the level sweeps of the depth-N truncation."""
    out = []
    for lam in LAMS:
        law = pc.PercolationLaw(lam)
        logw = fc.ibn_log_weights(t, lam)
        out.append((fc.min_cut(t, logw, N, want_cut=False).log_value,
                    pc.exact_survival(t, law, N),
                    walks.log_effective_conductance(t, logw, N),
                    pc.conductance_bound(t, law, N)))
    return np.array(out).T[:, :, None]


def assert_close(a, b, rel=1e-12):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert np.allclose(a, b, rtol=rel, atol=0.0), np.max(np.abs(a - b) / np.abs(b))


@pytest.mark.parametrize("family, depths", [
    (gen.sequence_family(), (1, 2, 3, 5, 9, 14, 20, 40)),
    (gen.binary_family(), (1, 2, 5, 12)),
    (gen.path_family(), (1, 7, 300)),
    (gen.marks_family([True, False, False, True, True, False, True]), (3, 6, 10, 25)),
], ids=["seq", "binary", "path", "marks"])
def test_symmetric_sweeps_match_the_materialized_ones(family, depths):
    table = classes.of_family(family, depths)
    got = np.stack(sweeps(table, depths[-1]))
    for j, N in enumerate(depths):
        t = gen.spherically_symmetric(family.degrees(N), N)
        assert_close(got[:, :, j:j + 1], materialized(t, N))


@pytest.mark.parametrize("depths", [(1, 3, 6, 10, 15, 21), (2, 4, 8, 13, 29, 44, 50),
                                    (28, 45, 66, 78), (77,)],
                         ids=["triangular", "inside-paths", "deep", "one-inside"])
def test_three_one_sweeps_match_the_materialized_ones(depths):
    table = classes.three_one(depths)
    got = np.stack(sweeps(table, depths[-1]))
    for j, N in enumerate(depths):
        assert_close(got[:, :, j:j + 1], materialized(gen.three_one_stretched(N), N))


def test_columns_are_independent_of_the_others():
    # unsorted and repeated frontiers give each column its value alone, bit for bit
    depths = (45, 10, 28, 45, 1)
    together = np.stack(sweeps(classes.three_one(depths), 45))
    for j, N in enumerate(depths):
        alone = np.stack(sweeps(classes.three_one((N,)), N))
        assert np.array_equal(together[:, :, j], alone[:, :, 0]), N


@pytest.mark.parametrize("Ms", [range(2, 101), (127, 200, 333), (512,), (700,), (1024,)],
                         ids=["2-100", "127-333", "512", "700", "1024"])
def test_three_one_gathers_match_the_divmod_oracle(Ms):
    # past the oracle's 2**40 switch near n = 41 and its n < 62 thin-child
    # guard; each level adds the thin class's column, its ray and two dead slots
    for M in Ms:
        got = list(classes._three_one_gathers(M))
        assert len(got) == M - 1, M
        child_P = 1
        for n, idx, want in zip(range(M - 1, 0, -1), got, three_one_gathers_oracle(M), strict=True):
            want = np.concatenate((want, [[child_P], [-1], [-1]]), axis=1)
            assert idx.dtype == np.int64 and idx.shape == want.shape, (M, n)
            assert np.array_equal(idx, want), (M, n)
            child_P = want.shape[1] - 1


@pytest.mark.parametrize("M", [2, 5, 8, 10])
def test_three_one_vertices_in_one_lattice_piece_share_a_class(M):
    t = gen.three_one_stretched(gen.triangular(M))
    cls = hash_cons(t)
    for n in range(1, M + 1):
        level = t.level(gen.triangular(n))
        s = len(level) - 1 - np.arange(len(level))  # distance from the right edge
        positions = three_one_lattice(n, M)
        piece = [bisect.bisect_right(positions, x) - 1 if x < 2 ** (n - 1) else -1
                 for x in s.tolist()]  # -1: a thin vertex, the top of a ray
        classes_of = {}
        for p, c in zip(piece, cls[level].tolist()):
            classes_of.setdefault(p, set()).add(c)
        assert all(len(c) == 1 for c in classes_of.values()), (n, classes_of)


def test_deep_sequence_tree_matches_the_closed_forms():
    fam = gen.sequence_family()
    depths = (16, 64, 256, 1024)
    table = classes.of_family(fam, depths)
    lv = fam.level_log2_sizes(1024)
    cut, surv, log_c, bound = sweeps(table, 1024)
    for i, lam in enumerate(LAMS):
        cuts = classes.cut_levels(table, lam)
        law = pc.PercolationLaw(lam)
        for j, N in enumerate(depths):
            closed = min_cut_symmetric(lv, lam, N)
            assert math.isclose(cut[i, j], closed[0], rel_tol=1e-12)
            assert cuts[j] == (cut[i, j], closed[1])
            assert math.isclose(surv[i, j], survival_symmetric(
                fam.degrees(N), law.log_p(np.arange(1, N + 1)), N), rel_tol=1e-12)
            n = np.arange(1, N + 1, dtype=float)
            assert math.isclose(log_c[i, j], log_effective_conductance_symmetric(
                lv, -np.power(n, lam)), rel_tol=1e-12)


def test_sequence_bound_keeps_to_level_shorting_at_the_deepest_rate():
    # the running log resistance is carried relative to the column's largest
    # edge resistance (about 540 here); level shorting rounds each term once
    lv = gen.sequence_family().level_log2_sizes(1024)
    log_c = pc._comparison_log_conductances(pc.PercolationLaw(0.9), 1024)
    expect = pc._bound(log_effective_conductance_symmetric(lv, log_c))
    assert math.isclose(pc.conductance_bound_symmetric(lv, 0.9, 1024), expect, rel_tol=1e-13)


def test_kept_symmetric_names_refuse_depth_0():
    fam = gen.sequence_family()
    lv, degrees = fam.level_log2_sizes(4), fam.degrees(4)
    for call in (lambda: fc.min_cut_symmetric(lv, 0.5, 0),
                 lambda: pc.survival_symmetric(degrees, pc.PercolationLaw(0.5), 0),
                 lambda: pc.conductance_bound_symmetric(lv, 0.5, 0),
                 lambda: walks.effective_conductance_symmetric(lv, 0.5, 0)):
        with pytest.raises(ValueError, match="frontier depths must be >= 1"):
            call()


SYMMETRIC = ("seq", "binary", "path", "marks")
MARKS = np.random.default_rng(34).random(5000) < 0.1  # shorter than the deepest N


def assert_identical(a, b):
    assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("N", [1, 2, 3, 14, 1000, 100_000])
@pytest.mark.parametrize("name", SYMMETRIC)
def test_branch_depths_match_the_degree_array_route(name, N):
    family, degrees = gen.family_by_name(name, MARKS), degrees_oracle(name, N, MARKS)
    assert_identical(family.degrees(N), degrees)
    frontiers = (N, max(1, N // 3), 1)
    got, want = classes.of_family(family, frontiers), symmetric_table_oracle(degrees, frontiers)
    assert got.depths == want.depths and got.frontiers == want.frontiers
    assert_identical(got.mult, want.mult)
    assert_identical(got.log_sizes, want.log_sizes)
    reader, oracle = family.level_reader(N), level_reader_oracle(degrees)
    assert_identical(reader.bounds, oracle.bounds)
    assert_identical(reader.values, oracle.values)
    assert_identical(reader(0, N + 1), oracle(0, N + 1))


def test_degree_arrays_keep_their_degrees_above_two():
    # the array routes take any degree: a branch depth counts its own
    degrees, N = np.array([3, 1, 2, 1, 1, 4, 1, 2]), 8
    lv = np.concatenate(([0.0], np.cumsum(np.log2(degrees))))
    table = classes.from_log2_levels(lv, N)
    assert table.depths == (0, 2, 5, 7, 8) and table.mult.tolist() == [3.0, 2.0, 4.0, 2.0]
    t = gen.spherically_symmetric(degrees, N)
    for lam in LAMS:
        law = pc.PercolationLaw(lam)
        assert math.isclose(pc.survival_symmetric(degrees, law, N), pc.exact_survival(t, law, N),
                            rel_tol=1e-12)


@pytest.mark.parametrize("name", SYMMETRIC)
def test_family_routes_build_no_degree_array(name, monkeypatch):
    def refuse(self, N):
        raise AssertionError(f"a degree array to depth {N}")

    family = gen.family_by_name(name, MARKS)
    monkeypatch.setattr(gen.TreeFamily, "degrees", refuse)
    with pytest.raises(AssertionError, match="a degree array"):
        family.build(8)  # the builder reads one
    fc.ibn_estimate(family, fc.DepthSchedule((16, 256, 1024)), LAMS)
    pc.survival_table(family, LAMS, (16, 256, 1024))
    fc.igr_estimate(family.level_reader(1024), 1024)


# -- explicit trees -------------------------------------------------------------

def branching_tree(seed: int, height: int, depth_first: bool, wide: int = 0) -> Tree:
    """A random tree of the given height whose vertices have 0, 1, 2, 4, 5
    or 6 children (levels past 40 vertices only 0, 1 or 2): the root has 4
    to 6, one of them a leaf at depth 1, so branches die above every
    deeper frontier.  With wide, the first vertex at depth 1 gets that many
    more leaf children.  Numbered breadth first, or depth first, so that no
    level below the root is one run of ids."""
    gen = np.random.default_rng(seed)
    kids = {0: list(range(1, 1 + int(gen.integers(4, 7))))}
    n, level, depth = 1 + len(kids[0]), kids[0][1:], 1
    kids[kids[0][0]] = []
    if wide:
        kids[kids[0][1]] = list(range(n, n + wide))
        n += wide
        level = level[1:]
    while depth < height:
        choices = [0, 1, 2] if len(level) > 40 else [0, 1, 2, 4, 5, 6]
        nxt = []
        for v in level:
            k = int(gen.choice(choices))
            kids[v] = list(range(n, n + k))
            n += k
            nxt += kids[v]
        if not nxt:  # keep the height
            kids[level[-1]] = [n]
            nxt, n = [n], n + 1
        level, depth = nxt, depth + 1
    order = [0]  # old ids in the new numbering
    if depth_first:
        stack = [0]
        order = []
        while stack:
            v = stack.pop()
            order.append(v)
            stack += reversed(kids.get(v, []))
    else:
        for v in order:
            order += kids.get(v, [])
    new = {v: i for i, v in enumerate(order)}
    parent, depth_of = np.full(n, -1), np.zeros(n, dtype=np.int64)
    for v, cs in kids.items():
        for c in cs:
            parent[new[c]] = new[v]
    for i in range(1, n):
        depth_of[i] = depth_of[parent[i]] + 1
    return Tree(parent, depth_of)


def assert_tree_sweeps_match_the_vertex_sweeps(t: Tree, depths):
    """of_tree's min-cut, survival and conductance bound at every frontier
    within 1e-12 relative of the per-vertex sweeps of Tree.sweep_up."""
    got = sweeps(classes.of_tree(t, depths), max(depths))
    for i, lam in enumerate(LAMS):
        law, logw = pc.PercolationLaw(lam), fc.ibn_log_weights(t, lam)
        for j, N in enumerate(depths):
            cut = fc.min_cut(t, logw, N, want_cut=False).log_value
            assert math.isclose(math.exp(got[0][i, j]), math.exp(cut), rel_tol=1e-12), (lam, N)
            assert math.isclose(got[1][i, j], pc.exact_survival(t, law, N), rel_tol=1e-12)
            assert math.isclose(got[3][i, j], pc.conductance_bound(t, law, N), rel_tol=1e-12)


# the levels that Tree.shape_classes hash-conses in Python: none, or every
# level of these trees where a vertex has two or more children
PYTHON_LEVELS = pytest.mark.parametrize("limit", [trees._CODE_LIMIT, 0], ids=["numpy", "python"])


@PYTHON_LEVELS
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), height=st.integers(2, 7), depth_first=st.booleans())
def test_tree_sweeps_match_the_vertex_sweeps(limit, seed, height, depth_first):
    t = branching_tree(seed, height, depth_first)
    assert t.height() == height and t.n_children_array().max() >= 4
    depths = list(range(1, height + 1))
    np.random.default_rng(seed).shuffle(depths)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(trees, "_CODE_LIMIT", limit)
        assert_tree_sweeps_match_the_vertex_sweeps(t, tuple(depths))


@PYTHON_LEVELS
@pytest.mark.parametrize("depth_first", [False, True], ids=["bfs", "dfs"])
def test_rows_too_wide_for_a_code_match_the_vertex_sweeps(limit, depth_first, monkeypatch):
    # 70 leaves under one vertex: 2**70 codes at the deepest level
    monkeypatch.setattr(trees, "_CODE_LIMIT", limit)
    t = branching_tree(3, 1, depth_first, wide=70)
    assert_tree_sweeps_match_the_vertex_sweeps(t, (1,))
    t = branching_tree(3, 5, depth_first, wide=70)
    assert_tree_sweeps_match_the_vertex_sweeps(t, (1, 2, 3, 4, 5))



@PYTHON_LEVELS
@pytest.mark.parametrize("seed", range(4))
def test_shuffled_ids_and_single_children_match_the_vertex_sweeps(limit, seed, monkeypatch):
    # ids in a random topological order, so that no level is one run of ids
    # or in sibling order
    monkeypatch.setattr(trees, "_CODE_LIMIT", limit)
    t = branching_tree(seed, 6, depth_first=False)
    d, parent = t.depth_array(), t.parent_array()
    rng, ready, order = np.random.default_rng(seed), [0], []
    while ready:
        order.append(ready.pop(int(rng.integers(len(ready)))))
        ready += t.children(order[-1])
    order = np.array(order)
    new = np.empty_like(order)
    new[order] = np.arange(len(order))
    shuffled = Tree(np.concatenate(([-1], new[parent[order[1:]]])), d[order])
    assert_tree_sweeps_match_the_vertex_sweeps(shuffled, (2, 4, 6))
    # a level of single children beside a childless vertex: their rows differ
    paths = Tree([-1, 0, 0, 0, 1, 2, 4, 5], [0, 1, 1, 1, 2, 2, 3, 3])
    assert_tree_sweeps_match_the_vertex_sweeps(paths, (1, 2, 3))

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_dedupe_numbers_the_classes_alike(seed, monkeypatch):
    t = branching_tree(seed, 7, depth_first=True)
    want = list(classes.of_tree(t, (3, 7)).levels())
    # np.unique on every level, then Python on every level of rows
    for name, value in (("_TABLE_CODES", 0), ("_CODE_LIMIT", 0)):
        with monkeypatch.context() as m:
            m.setattr(trees, name, value)
            got = list(classes.of_tree(t, (3, 7)).levels())
        assert len(got) == len(want) == 7
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want)), name
    wide = branching_tree(seed, 4, depth_first=False, wide=70)
    want = list(classes.of_tree(wide, (2, 4)).levels())
    monkeypatch.setattr(trees, "_CODE_LIMIT", 0)
    assert all(np.array_equal(a, b) for a, b in zip(classes.of_tree(wide, (2, 4)).levels(), want))


@pytest.mark.parametrize("seed", range(6))
def test_tree_classes_are_the_hash_consed_ones(seed):
    # a frontier at the height truncates nothing: one class per distinct
    # (depth, multiset of child classes)
    t = branching_tree(seed, 6, depth_first=bool(seed % 2))
    ids, d = hash_cons(t), t.depth_array()
    table = classes.of_tree(t, (6,))
    counts = [idx.shape[1] for idx in table.levels()][::-1]
    assert counts == [len(np.unique(ids[d == k])) for k in range(6)]


@pytest.mark.parametrize("family, N", [
    (gen.sequence_family(), 40), (gen.binary_family(), 9), (gen.path_family(), 12),
    (gen.marks_family([True, False, True, True, False]), 11),
], ids=["seq", "binary", "path", "marks"])
def test_symmetric_truncation_has_one_class_per_level(family, N):
    t = gen.spherically_symmetric(family.degrees(N), N)
    table = classes.of_tree(t, (N // 2, N))
    assert table.depths == tuple(range(N + 1))
    assert [idx.shape for idx in table.levels()] == [(d, 1) for d in family.degrees(N)[::-1]]


def test_tree_table_refuses_what_the_tree_cannot_reach():
    t = branching_tree(0, 4, depth_first=False)
    with pytest.raises(ValueError, match="^tree must reach depth N=5$"):
        classes.of_tree(t, (2, 5))
    with pytest.raises(ValueError, match="frontier depths must be >= 1"):
        classes.of_tree(t, (0, 2))


@pytest.mark.parametrize("rows", range(1, 8))
def test_log_sum_folds_every_child(rows):
    g = np.random.default_rng(rows).normal(scale=30.0, size=(rows, 5, 3))
    g[:, 0] = -np.inf  # every child dead
    g[0, 1] = -np.inf  # one child dead
    want = np.logaddexp.reduce(g, axis=0)
    with np.errstate(divide="ignore"):  # as log_min_cut calls it
        got = classes._log_sum(g.copy(), 1.0)
    assert np.array_equal(got[0], want[0]) and (got[0] == -np.inf).all()
    assert np.allclose(got[1:], want[1:], rtol=1e-14, atol=0.0)


def test_tree_sweep_splits_the_rates_alike(monkeypatch):
    t = branching_tree(5, 6, depth_first=False)
    table = classes.of_tree(t, (2, 4, 6))
    want = sweeps(table, 6)
    monkeypatch.setattr(classes, "_SWEEP_CELLS", 1)  # one rate per chunk
    got = sweeps(table, 6)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_tree_estimates_sweep_the_class_table(monkeypatch):
    # the estimators read a tree only through its class table
    t = branching_tree(7, 6, depth_first=True)
    sched = fc.DepthSchedule((2, 4, 6))
    ibn = fc.ibn_estimate(t, sched, LAMS)
    table = pc.survival_table(t, LAMS, sched.depths)

    def refuse(*args):
        raise AssertionError("per-vertex sweep")

    monkeypatch.setattr(Tree, "sweep_up", refuse)
    assert fc.ibn_estimate(t, sched, LAMS).trajectories == ibn.trajectories
    assert pc.survival_table(t, LAMS, sched.depths) == table
    cut = classes.log_min_cut(classes.of_tree(t, sched.depths), LAMS)
    assert [ibn.trajectories[lam] for lam in LAMS] == list(map(tuple, cut.tolist()))
