import bisect
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (all_cutsets, array_levels, cutset_weight, igr_estimate_oracle, is_cutset,
                      level_log2_sizes_oracle, random_tree, three_one_lattice)
from ibntrees import classes
from ibntrees import firefighter as ff
from ibntrees import generators as gen
from ibntrees import flowcut as fc
from ibntrees import percolation as pc
from ibntrees import walks as wk
from ibntrees.trees import Tree, check_flow


def test_min_cut_path_closed_form():
    t = gen.path_family().build(9)
    for lam in (0.3, 0.6, 0.9):
        res = fc.min_cut(t, fc.ibn_log_weights(t, lam), 9)
        assert math.isclose(res.value, math.exp(-9.0 ** lam), rel_tol=1e-12)
        assert res.cut == (9,)


def test_min_cut_matches_exhaustive_enumeration():
    for seed in range(30):
        t = random_tree(seed, 5)
        lam = 0.3 + 0.5 * (seed / 30)
        res = fc.min_cut(t, fc.ibn_log_weights(t, lam), 5)
        best = min(cutset_weight(t, c, lam) for c in all_cutsets(t, 5))
        assert math.isclose(res.value, best, rel_tol=1e-12)
        assert is_cutset(t, res.cut, 5)


def test_min_cut_with_zero_weight_edges():
    # zero-weight edges make all -inf sibling segments on live branches as
    # well as dead ones; the cut must still cover every path to the frontier
    zero = 0
    for seed in range(40):
        t = random_tree(seed, 5)
        logw = fc.ibn_log_weights(t, 0.3 + 0.5 * (seed / 40))
        hit = np.random.default_rng(seed).random(t.n_vertices) < 0.1
        hit[0] = False
        logw[hit] = -np.inf
        res = fc.min_cut(t, logw, 5)
        best = min(sum(math.exp(logw[v]) for v in c) for c in all_cutsets(t, 5))
        assert is_cutset(t, res.cut, 5), seed
        taken = sum(math.exp(logw[v]) for v in res.cut)
        if best == 0.0:
            zero += 1
            assert res.log_value == -math.inf and taken == 0.0, seed
        else:
            assert math.isclose(res.value, best, rel_tol=1e-12), seed
            assert math.isclose(taken, best, rel_tol=1e-12), seed
    assert 0 < zero < 40  # both outcomes are exercised


def test_min_cut_symmetric_reduction():
    sizes = gen.level_sizes(gen.sequence_family().degrees(14))
    lv = np.log2(np.asarray([float(x) for x in sizes]))
    t = gen.sequence_family().build(14)
    for lam in (0.2, 0.5, 0.8):
        g = fc.min_cut(t, fc.ibn_log_weights(t, lam), 14).log_value
        s, level = fc.min_cut_symmetric(lv, lam, 14)
        assert abs(g - s) < 1e-9
        assert 1 <= level <= 14


def test_min_cut_monotone_in_depth_and_lambda():
    t = random_tree(77, 6)
    vals_n = [fc.min_cut(t, fc.ibn_log_weights(t, 0.5), N).log_value for N in range(2, 7)]
    assert all(b <= a + 1e-12 for a, b in zip(vals_n, vals_n[1:]))
    vals_l = [fc.min_cut(t, fc.ibn_log_weights(t, lam), 6).log_value
              for lam in (0.2, 0.4, 0.6, 0.8)]
    assert all(b <= a + 1e-12 for a, b in zip(vals_l, vals_l[1:]))


def test_min_cut_tie_breaks_shallow():
    t = gen.path_family().build(2)
    logw = np.array([np.nan, math.log(0.5), math.log(0.5)])
    res = fc.min_cut(t, logw, 2)
    assert res.cut == (1,)


def test_max_flow_duality_and_admissibility():
    for seed in (1, 4, 9):
        t = random_tree(seed, 5)
        lam = 0.45
        w = fc.ibn_log_weights(t, lam)
        res = fc.min_cut(t, w, 5)
        theta = fc.max_flow(t, w, 5)
        strength = float(theta[t.children(0)].sum())
        assert abs(strength - res.value) <= 1e-12 * max(1.0, res.value)
        d = t.depth_array().astype(float)
        cap = np.empty(t.n_vertices)
        cap[0] = np.inf
        cap[1:] = np.exp(-np.power(d[1:], lam))
        assert check_flow(t, theta, cap).valid


def test_max_flow_path_constant():
    t = gen.path_family().build(7)
    theta = fc.max_flow(t, fc.ibn_log_weights(t, 0.5), 7)
    assert np.allclose(theta[1:], math.exp(-7.0 ** 0.5), rtol=1e-12)


def test_min_cut_binary_duality_deeper():
    t = gen.binary_family().build(6)
    res = fc.min_cut(t, fc.ibn_log_weights(t, 0.5), 6)
    theta = fc.max_flow(t, fc.ibn_log_weights(t, 0.5), 6)
    assert abs(theta[t.children(0)].sum() - res.value) <= 1e-12


def three_one_oracle(lam: float, m: int) -> float:
    """The scalar breakpoint DP for one (rate, base level): each level's
    nonincreasing piecewise-constant profile as a list of breakpoints at
    exact big-integer positions, found by bisect."""
    logW = [0.0] + [-(float(gen.triangular(j)) ** lam) for j in range(1, m + 1)]
    thin = logW[m]
    if m == 1:
        return math.log(2.0) + logW[1]

    def lse3(a, b, c):
        hi = max(a, b, c)
        return hi + math.log(math.exp(a - hi) + math.exp(b - hi) + math.exp(c - hi))

    starts, vals = [0], [logW[m]]
    for n in range(m - 1, 0, -1):
        dom, child_bound = 1 << (n - 1), 1 << n

        def val(x):
            return thin if x >= child_bound else vals[bisect.bisect_right(starts, x) - 1]

        cands = {0}
        for b in starts + [child_bound]:
            for r in (0, 1, 2):
                s0 = -((-(b - r)) // 3)  # ceil((b - r) / 3)
                if 0 < s0 < dom:
                    cands.add(s0)
        new_starts, new_vals, prev = [], [], None
        for s in sorted(cands):
            v = min(logW[n], lse3(val(3 * s), val(3 * s + 1), val(3 * s + 2)))
            assert prev is None or v <= prev + 1e-9
            if prev is None or v != prev:
                new_starts.append(s)
                new_vals.append(v)
                prev = v
        starts, vals = new_starts, new_vals
    return float(np.logaddexp(thin, vals[0]))


def test_three_one_gathers_find_the_child_piece():
    # deep enough that floors pass EXACT_BELOW and take the closed-form route
    M = 120
    assert 2 ** (M - 2) // 3 > classes.EXACT_BELOW
    levels = range(M - 1, 0, -1)
    for n, idx in zip(levels, classes._three_one_gathers(M), strict=True):
        child = three_one_lattice(n + 1, M)
        expect = [[len(child) if 3 * s + r >= 2 ** n else bisect.bisect_right(child, 3 * s + r) - 1
                   for s in three_one_lattice(n, M)] for r in range(3)]
        assert idx[:, :-1].tolist() == expect, n
        assert idx[:, -1].tolist() == [len(child), -1, -1], n  # the thin class's ray, dead slots


def test_three_one_dp_matches_oracle():
    lams = tuple(round(0.05 * k, 2) for k in range(1, 20))
    ms = (1, 2, 3, 17, 40, 90, 90, 256)
    table = fc.three_one_log_min_cut(lams, ms)
    assert table.shape == (len(lams), len(ms))
    for i, lam in enumerate(lams):
        for j, m in enumerate(ms):
            assert math.isclose(table[i, j], three_one_oracle(lam, m), rel_tol=1e-12), (lam, m)


def test_three_one_dp_columns_are_independent():
    # unsorted and duplicate base levels, m = 1, and a column on its own
    table = fc.three_one_log_min_cut((0.3, 0.7), (40, 1, 7, 40))
    for i, lam in enumerate((0.3, 0.7)):
        for j, m in enumerate((40, 1, 7, 40)):
            alone = fc.three_one_log_min_cut((lam,), (m,))[0, 0]
            assert math.isclose(table[i, j], alone, rel_tol=1e-12)
    assert table[0, 1] == math.log(2.0) - 1.0
    with pytest.raises(ValueError):
        fc.three_one_log_min_cut((0.5,), (3, 0))


def test_three_one_dp_matches_materialized():
    # up to m = 12, depth 78, the benchmark's tree; both the log value and
    # the linear one within 1e-12 relative
    for m in range(2, 13):
        N = gen.triangular(m)
        t = gen.three_one_stretched(N)
        for lam in (0.2, 0.4, 0.6, 0.8):
            g = fc.min_cut(t, fc.ibn_log_weights(t, lam), N, want_cut=False).log_value
            dp = fc.three_one_log_min_cut((lam,), (m,))[0, 0]
            assert math.isclose(g, dp, rel_tol=1e-12), (m, lam)
            assert math.isclose(math.exp(g), math.exp(dp), rel_tol=1e-12), (m, lam)


def test_three_one_dp_decays_for_every_lambda():
    lams = (0.1, 0.2, 0.3, 0.5, 0.7, 0.9)
    vals = fc.three_one_log_min_cut(lams, (8, 32, 128, 512))
    assert (np.diff(vals, axis=1) < 0).all(), vals


def test_igr_binary_saturates_grid():
    lv = np.arange(21, dtype=float)  # log2 #E_n = n
    est = fc.igr_estimate(array_levels(lv), 20)
    assert est.estimate >= 0.99 * 0.95


def test_igr_path_at_grid_minimum():
    est = fc.igr_estimate(array_levels(np.zeros(21)), 20)
    assert est.estimate == 0.05
    assert est.grid_sup is None


def test_igr_sequence_window():
    sizes = gen.level_sizes(gen.sequence_family().degrees(1000))
    lv = np.array([math.log2(float(s)) for s in sizes])
    est = fc.igr_estimate(array_levels(lv), 1000)
    assert 0.42 <= est.slope <= 0.58
    assert 0.42 <= est.endpoint <= 0.58


def test_igr_three_one_near_half():
    N = gen.triangular(512)
    est = fc.igr_estimate(gen.three_one_family().level_reader(N), N)
    assert abs(est.slope - 0.5) < 0.02


def _window_depth(length: int) -> int:
    """The least N whose tail window [max(2, N//8), N] holds length depths."""
    return next(N for N in itertools.count(2) if N - max(2, N // 8) + 1 == length)


SQUARE_MARKS = [math.isqrt(n) ** 2 == n for n in range(600)]
IGR_CASES = [("seq", 20), ("seq", 1024), ("seq", 100000), ("three-one", 528),
             ("three-one", 131328), ("marks", 500), ("binary", 300), ("path", 300)] + [
    ("seq", _window_depth(fc._IGR_CHUNK + k)) for k in (-1, 0, 1)]


@pytest.mark.parametrize("family,N", IGR_CASES)
def test_igr_streamed_fit_matches_polyfit_oracle(family, N):
    # the chunked centered fit sums in another order than polyfit's lstsq
    lv = gen.family_by_name(family, SQUARE_MARKS).level_log2_sizes(N)
    est, want = fc.igr_estimate(array_levels(lv), N), igr_estimate_oracle(lv, N)
    assert math.isclose(est.slope, want.slope, rel_tol=1e-12), (est.slope, want.slope)
    assert math.isclose(est.estimate, want.estimate, rel_tol=1e-12)
    assert (est.endpoint, est.grid_sup) == (want.endpoint, want.grid_sup)


@pytest.mark.parametrize("family,N", IGR_CASES)
def test_igr_on_a_family_reader_equals_the_fit_on_its_array(family, N):
    fam = gen.family_by_name(family, SQUARE_MARKS)
    lv = level_log2_sizes_oracle(fam, N)
    assert fc.igr_estimate(fam.level_reader(N), N) == fc.igr_estimate(array_levels(lv), N)


def test_igr_empty_window_has_no_grid_sup():
    # N = 1: the window [2, 1] holds no depth, so no rate passes its test
    assert fc.igr_estimate(array_levels(np.arange(2, dtype=float)), 1).grid_sup is None


def test_igr_memory_does_not_grow_with_depth():
    N = gen.triangular(512)
    lv = array_levels(gen.three_one_family().level_log2_sizes(N))
    tracemalloc.start()
    try:
        fc.igr_estimate(lv, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_igr_on_the_three_one_reader_holds_no_per_depth_array():
    # the reader holds one value per base level: 513 at N = 131328, where
    # one float per depth takes 1.05 MB
    N = gen.triangular(512)
    tracemalloc.start()
    try:
        fc.igr_estimate(gen.three_one_family().level_reader(N), N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (N + 1) // 2, peak


def test_igr_rejects_shallow_input():
    with pytest.raises(ValueError):
        fc.igr_estimate(array_levels(np.zeros(3)), 10)


def test_schedule_validation():
    with pytest.raises(ValueError):
        fc.DepthSchedule((16, 8))
    with pytest.raises(ValueError):
        fc.DepthSchedule((16,), eps_stop=0.1, c_stay=0.01)
    s = fc.DepthSchedule.doubling(16, 100)
    assert s.depths == (16, 32, 64, 100)


def test_classify_trajectory():
    sched = fc.DepthSchedule((16, 32))
    assert fc.classify_trajectory([-1.0, -20.0], sched) == "above"
    assert fc.classify_trajectory([-1.0, -2.0], sched) == "below"
    assert fc.classify_trajectory([-1.0, -10.0], sched) == "undecided"


def test_ibn_sequence_brackets_half():
    res = fc.ibn_estimate(gen.sequence_family(), fc.DepthSchedule.doubling(16, 1024))
    assert res.lower is not None and res.upper is not None
    assert res.contains(0.5)
    assert res.width() <= 0.2


def test_ibn_binary_below_through_09():
    grid = tuple(round(0.05 * k, 2) for k in range(1, 19))  # 0.05 .. 0.90
    res = fc.ibn_estimate(gen.binary_family(), fc.DepthSchedule.doubling(16, 256), grid=grid)
    assert all(v == "below" for v in res.classifications.values())


def test_ibn_three_one_all_above():
    sched = fc.DepthSchedule(tuple(gen.triangular(m) for m in (32, 64, 128, 256, 512)))
    res = fc.ibn_estimate(gen.three_one_family(), sched, grid=(0.4, 0.5, 0.6, 0.7, 0.8, 0.9))
    assert all(v == "above" for v in res.classifications.values())


def test_ibn_explicit_tree_route():
    t = gen.sequence_family().build(20)
    res = fc.ibn_estimate(t, fc.DepthSchedule((5, 10, 20)), grid=(0.3, 0.6))
    assert res.classifications[0.3] == "below"


def test_ibn_rejects_bad_grid():
    with pytest.raises(ValueError):
        fc.ibn_estimate(gen.sequence_family(), fc.DepthSchedule((16,)), grid=(0.0, 0.5))


def test_every_estimator_rejects_an_empty_grid():
    # an empty grid once came back as a bracket whose interval() raised
    # IndexError, or failed inside the class sweep
    fam, sched = gen.sequence_family(), fc.DepthSchedule((4, 8))
    tree = fam.build(8)
    psi = wk.psi_field(tree, wk.deterministic_conductances(tree, 0.3), 8)
    with pytest.raises(ValueError, match="the grid is empty"):
        fc.rate_grid(())
    for estimate in (lambda: fc.ibn_estimate(fam, sched, []),
                     lambda: pc.theta_estimate(fam, sched, []),
                     lambda: ff.lambda_c_estimate(fam, 2, [], 1.0, sched),
                     lambda: wk.rt_estimate(psi, [], sched)):
        with pytest.raises(ValueError, match="the grid is empty"):
            estimate()


def test_sweeps_on_levels_out_of_id_order():
    # level 2 is 3, 4, 5 with parents 2, 1, 2 and level 3 is 6..9 with
    # parents 4, 3, 5, 3, so each sweep must regroup siblings; at N = 2 the
    # sweeps stop above the height and every entry below N keeps its fill
    t = Tree([-1, 0, 0, 2, 1, 2, 4, 3, 5, 3], [0, 1, 1, 2, 2, 2, 3, 3, 3, 3])
    for k in (2, 3):
        assert (np.diff(t.parent_array()[t.level(k)]) < 0).any()
    n, d = t.n_vertices, t.depth_array()
    par = [t.parent(v) for v in range(n)]
    kids = [t.children(v) for v in range(n)]

    def resistance(c):  # per vertex, children first (they have larger ids)
        R = [0.0] * n
        for v in reversed(range(n)):
            if d[v] < N:
                R[v] = 1.0 / sum(1.0 / (1.0 / c[x] + R[x]) for x in kids[v])
        return R[0]

    for N in (3, 2):
        inside = [v for v in range(1, n) if d[v] <= N]
        below = d > N
        for r in range(len(inside) + 1):
            for edges in itertools.combinations(inside, r):
                on_paths = [sum(u in edges for u in (x, par[x], par[par[x]]) if u > 0)
                            for x in t.level_set(N)]
                assert is_cutset(t, edges, N) == all(h == 1 for h in on_paths)

        for lam in (0.3, 0.6, 0.9):
            w = fc.ibn_log_weights(t, lam)
            res = fc.min_cut(t, w, N)
            best = min(cutset_weight(t, c, lam) for c in all_cutsets(t, N))
            assert math.isclose(res.value, best, rel_tol=1e-12)
            assert is_cutset(t, res.cut, N)

            # subtree min-cuts m, then each vertex's inflow split among its
            # children in proportion to their m
            c = [math.exp(-float(x) ** lam) for x in d]
            m = [0.0] * n
            for v in reversed(inside):
                m[v] = c[v] if d[v] == N else min(c[v], sum(m[x] for x in kids[v]))
            theta = [0.0] * n
            for v in inside:
                theta[v] = m[v] if d[v] == 1 else \
                    theta[par[v]] * m[v] / sum(m[x] for x in kids[par[v]])
            flow = fc.max_flow(t, w, N)
            assert np.allclose(flow, theta, rtol=1e-12, atol=0) and not flow[below].any()
            assert math.isclose(check_flow(t, flow).strength, res.value, rel_tol=1e-12)
            C = wk.effective_conductance(t, wk.deterministic_conductances(t, lam), N)
            assert math.isclose(C, 1.0 / resistance(c), rel_tol=1e-12)

            law = pc.PercolationLaw(lam)
            p = np.concatenate(([1.0], law.p(d[1:])))  # slot 0 unused
            total = 0.0
            for bits in itertools.product([False, True], repeat=n - 1):
                is_open = (True,) + bits  # slot 0 is the root, always reached
                pr = math.prod(p[v] if is_open[v] else 1.0 - p[v] for v in range(1, n))
                reached = [True] + [False] * (n - 1)
                for v in range(1, n):
                    reached[v] = reached[par[v]] and is_open[v]
                if any(reached[v] for v in t.level_set(N)):
                    total += pr
            assert math.isclose(pc.exact_survival(t, law, N), total, rel_tol=1e-12)

            # comparison network c(x) = P[root <-> x] / (1 - p(x))
            reach = [1.0] * n
            for v in inside:
                reach[v] = reach[par[v]] * p[v]
            C = 1.0 / resistance([0.0] + [reach[v] / (1.0 - p[v]) for v in range(1, n)])
            assert math.isclose(pc.conductance_bound(t, law, N), C / (1.0 + C), rel_tol=1e-12)
            assert np.isnan(pc.percolation_conductances(t, law, N)[below]).all()

            # a field that closes the edges into 2, 5 and 8 (factor 1.5)
            log_c = np.concatenate(([np.nan], -np.power(d[1:].astype(float), lam)
                                    * np.array([0.5, 0.8, 1.5])[np.arange(1, n) % 3]))
            S, psi, Psi = [0.0] * n, [1.0] * n, [1.0] * n
            is_open = [False] * n
            for v in inside:
                S[v] = S[par[v]] + math.exp(-log_c[v])
                psi[v] = S[par[v]] / S[v] if d[v] > 1 else 1.0
                Psi[v] = Psi[par[v]] * psi[v]
                is_open[v] = d[v] == 1 or (is_open[par[v]] and -log_c[v] <= float(d[v]) ** lam)
            got = wk.psi_field(t, log_c, N)
            for logs, ref in ((got.log_S, S), (got.log_psi, psi), (got.log_Psi, Psi)):
                assert np.allclose(np.exp(logs[inside]), [ref[v] for v in inside],
                                   rtol=1e-12, atol=0)
                assert np.isnan(logs[0]) and np.isnan(logs[below]).all()
            assert wk.coupled_percolation(t, log_c, lam, N)[0].tolist() == is_open
