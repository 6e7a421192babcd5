import bisect
import math

import numpy as np
import pytest

from conftest import (hash_cons, log_effective_conductance_symmetric, min_cut_symmetric,
                      survival_symmetric, three_one_gathers_oracle, three_one_lattice)
from ibntrees import classes
from ibntrees import flowcut as fc
from ibntrees import generators as gen
from ibntrees import percolation as pc
from ibntrees import walks

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
