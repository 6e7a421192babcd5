import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_tree
from ibntrees import generators as gen
from ibntrees import percolation as pc
from ibntrees.flowcut import DepthSchedule
from ibntrees.trees import Tree


def test_survival_path_closed_form():
    t = gen.path_family().build(6)
    lam = 0.4
    s = pc.exact_survival(t, pc.PercolationLaw(lam), 6)
    expect = math.exp(-sum(n ** (lam - 1.0) for n in range(1, 7)))
    assert math.isclose(s, expect, rel_tol=1e-12)


def test_survival_star_path_enumeration():
    t = Tree([-1, 0, 0, 1, 2], [0, 1, 1, 2, 2])  # two paths of two edges
    lam = 0.35
    law = pc.PercolationLaw(lam)
    p1, p2 = math.exp(-1.0), math.exp(-(2.0 ** (lam - 1.0)))
    closed = 1.0 - (1.0 - p1 * p2) ** 2
    total = 0.0
    for bits in itertools.product([0, 1], repeat=4):
        pr = 1.0
        for bit, p in zip(bits, [p1, p1, p2, p2]):
            pr *= p if bit else 1.0 - p
        if (bits[0] and bits[2]) or (bits[1] and bits[3]):
            total += pr
    s = pc.exact_survival(t, law, 2)
    assert math.isclose(s, closed, rel_tol=1e-12)
    assert math.isclose(s, total, rel_tol=1e-12)


def test_survival_depth_one_edge_is_exp_minus_one():
    t = Tree([-1, 0], [0, 1])
    s = pc.exact_survival(t, pc.PercolationLaw(0.5), 1)
    assert math.isclose(s, math.exp(-1.0), rel_tol=1e-12)


def brute_force_survival(t: Tree, lam: float, N: int) -> float:
    """P[root <-> depth N], summed over every set of open edges."""
    E = t.n_vertices - 1
    d = t.depth_array()
    par = t.parent_array()
    p = np.exp(-np.power(d[1:].astype(float), lam - 1.0))
    bits = (np.arange(1 << E)[:, None] >> np.arange(E)) & 1 == 1  # subsets x edges
    reach = np.ones((1 << E, t.n_vertices), dtype=bool)
    for v in range(1, t.n_vertices):  # random_tree numbers parents first
        reach[:, v] = reach[:, par[v]] & bits[:, v - 1]
    weight = np.where(bits, p, 1.0 - p).prod(axis=1)
    return float(weight[reach[:, d == N].any(axis=1)].sum())


def test_survival_matches_enumeration_on_irregular_trees():
    dead = 0
    for seed in range(12):
        N = 3 + seed % 3
        t = random_tree(seed + 100, N, extra=12 - N)
        assert t.n_vertices - 1 <= 12
        leaves = np.bincount(t.parent_array()[1:], minlength=t.n_vertices) == 0
        dead += bool((leaves & (t.depth_array() < N)).any())
        for lam in (0.3, 0.7):
            s = pc.exact_survival(t, pc.PercolationLaw(lam), N)
            assert math.isclose(s, brute_force_survival(t, lam, N), rel_tol=1e-12), (seed, lam)
        assert pc.exact_survival(t, pc.PercolationLaw.always_open(), N) == 1.0
    assert dead >= 6  # most trees carry a branch that dies above depth N


def test_survival_symmetric_matches_generic():
    fam = gen.sequence_family()
    t = fam.build(16)
    for lam in (0.3, 0.7):
        a = pc.exact_survival(t, pc.PercolationLaw(lam), 16)
        b = pc.survival_symmetric(fam.degrees(16), pc.PercolationLaw(lam), 16)
        assert math.isclose(a, b, rel_tol=1e-12)


def test_survival_monotone():
    t = random_tree(9, 6)
    vals = [pc.exact_survival(t, pc.PercolationLaw(0.5), N) for N in range(1, 7)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    # p(e) = exp(-|e|**(lam-1)) falls with lam at depth >= 2, so deeper
    # survival does too (the supercritical side is the small-lam side)
    by_lam = [pc.exact_survival(t, pc.PercolationLaw(lam), 6) for lam in (0.2, 0.5, 0.8)]
    assert all(b <= a + 1e-15 for a, b in zip(by_lam, by_lam[1:]))


def test_mc_always_open_and_single_edge():
    t = random_tree(4, 4)
    est, err = pc.mc_survival(t, pc.PercolationLaw.always_open(), 4, 500, seed=0)
    assert est == 1.0
    t1 = Tree([-1, 0], [0, 1])
    est, err = pc.mc_survival(t1, pc.PercolationLaw(0.5), 1, 50_000, seed=1)
    assert abs(est - math.exp(-1.0)) < 3 * err
    for survival in (pc.exact_survival, lambda *a: pc.mc_survival(*a, 10, seed=1)):
        with pytest.raises(ValueError, match="N=0"):
            survival(t1, pc.PercolationLaw(0.5), 0)


def test_exact_sweeps_check_depth_before_sizing_by_it():
    t = gen.binary_family().build(4)  # 31 vertices
    law = pc.PercolationLaw(0.5)
    for survival in (pc.exact_survival, pc.conductance_bound):
        survival(t, law, 4)  # first calls set up numpy
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="tree must reach depth N=10000000"):
                survival(t, law, 10 ** 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a per-depth table sized by N takes 80 MB
        assert peak < 1 << 20, (survival, peak)


def test_mc_matches_exact():
    for seed in (0, 1, 2):
        t = random_tree(seed + 40, 6)
        law = pc.PercolationLaw(0.45)
        exact = pc.exact_survival(t, law, 6)
        est, err = pc.mc_survival(t, law, 6, 20_000, seed=seed)
        assert abs(est - exact) < 3 * max(err, 1e-4)


def test_theta_sequence_trajectories():
    fam = gen.sequence_family()
    vals3 = [pc.survival_symmetric(fam.degrees(N), pc.PercolationLaw(0.3), N)
             for N in (16, 64, 256, 1024)]
    assert all(v >= 1e-6 for v in vals3)
    vals7 = [pc.survival_symmetric(fam.degrees(N), pc.PercolationLaw(0.7), N)
             for N in (16, 64, 256, 1024)]
    assert all(b < a for a, b in zip(vals7, vals7[1:]))
    assert vals7[-1] < 1e-20


def test_theta_bracket_overlaps_ibn():
    from ibntrees.flowcut import ibn_estimate
    fam = gen.sequence_family()
    grid = tuple(round(0.05 * k, 2) for k in range(1, 20))
    theta = pc.theta_estimate(fam, DepthSchedule((16, 32, 64, 128)), grid)
    ibn = ibn_estimate(fam, DepthSchedule.doubling(16, 1024))
    t_lo, t_hi = theta.interval()
    i_lo, i_hi = ibn.interval()
    assert max(t_lo, i_lo) <= min(t_hi, i_hi)


def test_theta_path_all_above():
    # the survival product decays like exp(-N**lam / lam): slowly for small
    # lam, so the small-lam classifications need a deep schedule
    res = pc.theta_estimate(gen.path_family(), DepthSchedule((4096, 16384, 65536)),
                            tuple(round(0.05 * k, 2) for k in range(1, 20)))
    assert all(v == "above" for v in res.classifications.values())


def test_theta_binary_all_below():
    grid = tuple(round(0.05 * k, 2) for k in range(1, 17))  # 0.05 .. 0.80
    res = pc.theta_estimate(gen.binary_family(), DepthSchedule((16, 32, 64)), grid)
    assert all(v == "below" for v in res.classifications.values())


def test_conductance_bound_below_exact():
    for seed in range(100):
        t = random_tree(seed, 5)
        lam = 0.25 + 0.5 * (seed / 100)
        law = pc.PercolationLaw(lam)
        b = pc.conductance_bound(t, law, 5)
        e = pc.exact_survival(t, law, 5)
        assert b <= e + 1e-12


def test_conductance_bound_single_edge_equality():
    t = Tree([-1, 0], [0, 1])
    law = pc.PercolationLaw(0.5)
    b = pc.conductance_bound(t, law, 1)
    assert math.isclose(b, math.exp(-1.0), rel_tol=1e-12)


def test_conductance_bound_symmetric_matches_generic():
    fam = gen.sequence_family()
    t = fam.build(20)
    for lam in (0.3, 0.6):
        a = pc.conductance_bound(t, pc.PercolationLaw(lam), 20)
        b = pc.conductance_bound_symmetric(fam.level_log2_sizes(20), lam, 20)
        assert math.isclose(a, b, rel_tol=1e-9)


def test_conductance_bound_sequence_floor():
    fam = gen.sequence_family()
    for N in (16, 64, 256, 512):
        assert pc.conductance_bound_symmetric(fam.level_log2_sizes(N), 0.3, N) >= 1e-6


def test_law_validation():
    with pytest.raises(ValueError):
        pc.PercolationLaw(1.5)
    law = pc.PercolationLaw(0.5)
    p = law.p(np.arange(1, 5, dtype=float))
    assert (np.diff(p) > 0).all()
    assert math.isclose(p[0], math.exp(-1.0))


def test_mc_survival_values_are_pinned():
    # each level draws one (trials, level size) block of uniforms from its
    # chunk's substream; these values pin that order (700 trials span 3 chunks)
    seq = gen.sequence_family().build(32)
    assert pc.mc_survival(seq, pc.PercolationLaw(0.5), 32, 1000, seed=5) == \
        (0.002, 0.0014127986409959489)
    assert pc.mc_survival(seq, pc.PercolationLaw(0.3), 32, 1000, seed=5) == \
        (0.02, 0.004427188724235731)
    t31 = gen.three_one_stretched(28)
    assert pc.mc_survival(t31, pc.PercolationLaw(0.3), 28, 700, seed=2) == \
        (0.08, 0.010253919111386492)


def test_survival_table_builds_no_three_one_truncation(monkeypatch):
    real = gen.three_one_stretched
    monkeypatch.setattr(gen, "three_one_stretched",
                        lambda N: pytest.fail(f"a truncation to depth {N} was built"))
    depths = (15, 28, 40, 45)  # 40 lies inside a path of the base tree
    table = pc.survival_table(gen.three_one_family(), (0.3, 0.7), depths)
    for N in depths:
        t = real(N)
        for lam in (0.3, 0.7):
            law = pc.PercolationLaw(lam)
            exact, _, _, bound = table[lam, N]
            assert math.isclose(exact, pc.exact_survival(t, law, N), rel_tol=1e-12)
            assert math.isclose(bound, pc.conductance_bound(t, law, N), rel_tol=1e-12)
    pc.theta_estimate(gen.three_one_family(), DepthSchedule(depths), (0.3, 0.7))


@pytest.mark.parametrize("family", [gen.sequence_family(), gen.three_one_family(),
                                    gen.marks_family([1, 0, 1, 1, 0, 0, 1])],
                         ids=["seq", "three-one", "marks"])
def test_survival_table_draws_every_depth_on_one_truncation(family, monkeypatch):
    built = []
    real = pc.truncation
    monkeypatch.setattr(pc, "truncation", lambda source, N: built.append(N) or real(source, N))
    depths = (3, 6, 10, 12, 15)  # 12 lies inside a path of the 3-1 base tree
    table = pc.survival_table(family, (0.3, 0.7), depths, mc_trials=700, seed=5)
    assert built == [15]
    for N in depths:
        own = real(family, N)
        for lam in (0.3, 0.7):
            assert table[lam, N][1:3] == pc.mc_survival(own, pc.PercolationLaw(lam), N, 700, 5)


def test_three_one_schedule_past_the_cap_fails_before_any_depth(monkeypatch):
    # the lattice of base level M holds M**2 elements: about 2e12 at depth 10**12
    monkeypatch.setattr(pc.classes, "_sweep", lambda *a: pytest.fail("a depth was evaluated"))
    with pytest.raises(gen.MemoryCapError, match="3-1 breakpoint lattice"):
        pc.survival_table(gen.three_one_family(), (0.5,), (10, 10 ** 12))
