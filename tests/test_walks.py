import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import log_effective_conductance_symmetric, random_tree, rt_trajectories_oracle
from ibntrees import generators as gen
from ibntrees import rng, walks
from ibntrees.flowcut import DepthSchedule
from ibntrees.trees import Tree


def test_effective_conductance_path_closed_form():
    t = gen.path_family().build(10)
    cf = walks.deterministic_conductances(t, 0.5)
    ec = walks.effective_conductance(t, cf, 10)
    expect = 1.0 / sum(math.exp(n ** 0.5) for n in range(1, 11))
    assert math.isclose(ec, expect, rel_tol=1e-12)


def test_effective_conductance_unit_binary():
    t = gen.binary_family().build(3)
    cf = np.zeros(t.n_vertices)
    assert math.isclose(walks.effective_conductance(t, cf, 3), 8.0 / 7.0, rel_tol=1e-12)


def test_effective_conductance_unit_binary_against_escape_mc():
    # escape probability from the root equals EC / (total root conductance)
    fam = gen.binary_family()
    ret, steps, maxd = walks.depth_walk_batch(fam.degrees(3), 0.0, 3, 200_000, 10 ** 4,
                                              seed=17, stop_depth=3)
    escape = float((maxd >= 3).mean())
    expect = (8.0 / 7.0) / 2.0
    se = math.sqrt(expect * (1 - expect) / 200_000)
    assert abs(escape - expect) < 3 * se


def test_effective_conductance_symmetric_matches_generic():
    fam = gen.sequence_family()
    t = fam.build(14)
    for lam in (0.3, 0.7):
        g = walks.effective_conductance(t, walks.deterministic_conductances(t, lam), 14)
        s = walks.effective_conductance_symmetric(fam.level_log2_sizes(14), lam, 14)
        assert math.isclose(g, s, rel_tol=1e-12)


def test_effective_conductance_sequence_regimes():
    fam = gen.sequence_family()
    vals7 = [walks.effective_conductance_symmetric(fam.level_log2_sizes(N), 0.7, N) for N in (16, 64, 256, 512)]
    assert all(b <= a for a, b in zip(vals7, vals7[1:]))
    assert vals7[-1] < 1e-3
    vals3 = [walks.effective_conductance_symmetric(fam.level_log2_sizes(N), 0.3, N) for N in (16, 64, 256, 512)]
    assert all(b <= a for a, b in zip(vals3, vals3[1:]))
    assert vals3[-1] > 1e-3


def test_effective_conductance_monotone_under_edge_decrease():
    t = random_tree(5, 4)
    cf = walks.deterministic_conductances(t, 0.4)
    base = walks.effective_conductance(t, cf, 4)
    weakened = cf.copy()
    weakened[1] -= 0.7
    lower = walks.effective_conductance(t, weakened, 4)
    assert lower <= base + 1e-15


@pytest.mark.parametrize("seed", range(6))
def test_log_effective_conductance_shifts_with_the_field(seed):
    # C_eff is 1-homogeneous in the conductances; exp(-1000) underflows linearly
    t = random_tree(seed, 5)
    log_c = walks.deterministic_conductances(t, 0.4) + np.random.default_rng(seed).normal(
        size=t.n_vertices)
    for N in (1, 3, 5):
        base = walks.log_effective_conductance(t, log_c, N)
        shifted = walks.log_effective_conductance(t, log_c - 1000.0, N)
        assert math.isclose(shifted, base - 1000.0, rel_tol=1e-12)
        assert math.isclose(math.exp(base), walks.effective_conductance(t, log_c, N), rel_tol=1e-12)


@pytest.mark.parametrize("family, N", [(gen.path_family(), 1100), (gen.binary_family(), 12)])
def test_log_effective_conductance_below_the_double_range_matches_symmetric(family, N):
    t = family.build(N)
    per_depth = -800.0 - 3.0 * np.arange(1, N + 1)  # log c(n) for n = 1..N
    log_c = np.concatenate(([np.nan], per_depth[t.depth_array()[1:] - 1]))
    expect = log_effective_conductance_symmetric(family.level_log2_sizes(N), per_depth)
    assert math.isclose(walks.log_effective_conductance(t, log_c, N), expect, rel_tol=1e-12)


def test_sampler_support_and_cdf_points():
    logs = walks.sample_conductance_logs(200_000, 0.4, seed=7)
    C = np.exp(logs)
    assert (C <= math.exp(-1.0) + 1e-15).all()
    emp = (C < math.exp(-(2.0 ** 0.4))).mean()
    exact = 2.0 ** (0.4 - 1.0)
    assert abs(emp - exact) < 3 * math.sqrt(exact * (1 - exact) / 200_000)


def test_sampler_boundary_value():
    # u = 1 maps to t = 1, C = exp(-1)
    lam = 0.6
    t = 1.0 ** (-1.0 / (1.0 - lam))
    assert math.isclose(math.exp(-t ** lam), math.exp(-1.0))
    assert walks.conductance_cdf(np.array([math.exp(-1.0)]), lam)[0] == 1.0


@pytest.mark.parametrize("lam", [0.1, 0.4, 0.75, 0.95])
@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_sampler_matches_its_formula_bit_for_bit(seed, lam):
    # the sampler turns the uniforms into log C in place, by the same IEEE
    # operations in the same order as the written-out formula
    u = rng.uniforms(seed, rng.EDGE_STREAM, 5000)
    want = -np.exp(lam * (-np.log(u) / (1.0 - lam)))
    got = walks.sample_conductance_logs(5000, lam, seed)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_sampler_rejects_bad_lambda():
    with pytest.raises(ValueError):
        walks.sample_conductance_logs(10, 1.2, seed=0)


def test_sampler_reproducible_by_edge_id():
    a = walks.sample_conductance_logs(100, 0.4, seed=5)
    b = walks.sample_conductance_logs(50, 0.4, seed=5)
    assert np.array_equal(a[:50], b)


def test_single_edge_walk_returns_at_step_two():
    t = Tree([-1, 0], [0, 1])
    cf = walks.deterministic_conductances(t, 0.5)
    ret, steps, maxd = walks.simulate_walk(t, cf, 1, 20, 100, seed=1)
    assert ret.all() and (steps == 2).all() and (maxd == 1).all()


def test_binary_walk_escapes():
    fam = gen.binary_family()
    ret, steps, maxd = walks.depth_walk_batch(fam.degrees(20), 0.0, 20, 10_000, 10 ** 4,
                                              seed=2, stop_depth=20)
    assert (maxd >= 20).mean() > 0


def test_path_walk_recurrent():
    # decreasing conductances on a ray: return frequency approaches 1 as the
    # cap grows, consistent with the vanishing effective conductance
    fam = gen.path_family()
    ec = walks.effective_conductance_symmetric(fam.level_log2_sizes(64), 0.5, 64)
    assert ec < 1e-3
    freqs = []
    for cap in (100, 10_000):
        ret, _, _ = walks.depth_walk_batch(fam.degrees(64), 0.5, 64, 4000, cap, seed=3)
        freqs.append(ret.mean())
    assert freqs[-1] >= freqs[0]
    assert freqs[-1] > 0.99


def test_depth_walk_matches_tree_walk():
    fam = gen.sequence_family()
    t = fam.build(8)
    cf = walks.deterministic_conductances(t, 0.5)
    f_tree = walks.simulate_walk(t, cf, 8, 2000, 200, seed=11)[0].mean()
    ret, _, _ = walks.depth_walk_batch(fam.degrees(8), 0.5, 8, 2000, 200, seed=12)
    se = math.sqrt(0.25 / 2000)
    assert abs(f_tree - ret.mean()) < 6 * se


@pytest.mark.parametrize("cap", [2, 3, 4, 5, 6, 7, 12])
def test_walk_return_by_cap_matches_birth_death_chain(cap):
    # return by step T is possible only at even T, so odd and even caps
    # together pin both off-by-one directions of steps and step_cap
    fam, lam, N, trials = gen.binary_family(), 0.5, 5, 20_000
    exact = walks.return_probability_symmetric(fam.degrees(N), lam, N, cap)
    se = math.sqrt(exact * (1 - exact) / trials)
    t = fam.build(N + 2)  # the tree walk reflects at depth N, not at the leaves
    batches = (walks.depth_walk_batch(fam.degrees(N), lam, N, trials, cap, seed=31),
               walks.simulate_walk(t, walks.deterministic_conductances(t, lam), N,
                                   trials, cap, seed=32))
    for ret, steps, maxd in batches:
        assert abs(ret.mean() - exact) < 4 * se
        assert (steps[~ret] == cap).all()
        assert (steps[ret] <= cap).all() and (steps[ret] % 2 == 0).all()
        assert (2 * maxd[ret] <= steps[ret]).all()
        assert (maxd >= 1).all() and (maxd <= min(N, cap)).all()


def test_return_probability_symmetric_closed_forms():
    # on a binary tree of depth 1 every walk is back at step 2; with unit
    # conductances on a path of depth 2 the chain from depth 1 returns at
    # step 2 with chance 1/2, else reflects and returns at step 4
    assert walks.return_probability_symmetric(np.full(1, 2), 0.5, 1, 1) == 0.0
    assert walks.return_probability_symmetric(np.full(1, 2), 0.5, 1, 2) == 1.0
    path = np.ones(2, dtype=np.int64)
    got = [walks.return_probability_symmetric(path, 0.0, 2, T) for T in (2, 3, 4, 6)]
    assert got == [0.5, 0.5, 0.75, 0.875]
    with pytest.raises(ValueError):
        walks.return_probability_symmetric(path, 0.0, 2, 0)


def test_transient_walk_at_the_benchmark_size_matches_the_exact_return():
    # the benchmark's lam = 0.3 walk on the sequence tree, 144 of whose 2000
    # trials run to the 30 000-step cap at seed 1
    fam, lam, N, trials, cap = gen.sequence_family(), 0.3, 512, 2000, 30_000
    exact = walks.return_probability_symmetric(fam.degrees(N), lam, N, cap)
    ret, steps, _ = walks.depth_walk_batch(fam.degrees(N), lam, N, trials, cap, seed=1)
    se = math.sqrt(exact * (1 - exact) / trials)
    assert abs(ret.mean() - exact) < 4 * se
    assert (steps[~ret] == cap).all()


def test_stop_depth_one_halts_both_walkers_after_the_first_step():
    fam = gen.binary_family()
    t = fam.build(3)
    for ret, steps, maxd in (
            walks.depth_walk_batch(fam.degrees(3), 0.5, 3, 50, 100, seed=1, stop_depth=1),
            walks.simulate_walk(t, walks.deterministic_conductances(t, 0.5), 3, 50, 100,
                                seed=1, stop_depth=1)):
        assert not ret.any() and (steps == 1).all() and (maxd == 1).all()


@pytest.mark.parametrize("case", ["three-one", "random"])
def test_tree_walk_escape_matches_effective_conductance(case):
    # P(reach depth N before returning) = C_eff(N) / pi(root)
    if case == "three-one":
        N = 45
        t = gen.three_one_family().build(N)
        log_c = walks.deterministic_conductances(t, 0.3)
    else:
        N = 4  # below the height: deeper vertices lie outside the walk
        t = random_tree(7, 6, extra=30)
        log_c = np.random.default_rng(7).normal(size=t.n_vertices)
    exact = walks.effective_conductance(t, log_c, N) / np.exp(log_c[t.level(1)]).sum()
    trials = 20_000
    ret, steps, maxd = walks.simulate_walk(t, log_c, N, trials, 10 ** 7, seed=41, stop_depth=N)
    assert (ret | (maxd >= N)).all()
    assert (maxd <= N).all()
    se = math.sqrt(exact * (1 - exact) / trials)
    assert abs((maxd >= N).mean() - exact) < 4 * se


def test_sequence_walk_escapes_below_branching_number():
    # lam below the bracket: a positive fraction of 10^4 walks reaches depth 64
    fam = gen.sequence_family()
    ret, _, maxd = walks.depth_walk_batch(fam.degrees(64), 0.3, 64, 10_000, 10 ** 5,
                                          seed=4, stop_depth=64)
    assert (maxd >= 64).mean() > 0


def test_psi_field_constant_path():
    t = gen.path_family().build(10)
    cf = np.zeros(t.n_vertices)
    pf = walks.psi_field(t, cf, 10)
    for v in range(1, 11):
        assert math.isclose(math.exp(pf.log_Psi[v]), 1.0 / t.depth(v), rel_tol=1e-12)
    assert pf.log_psi[1] == 0.0


def test_psi_product_consistency():
    fam = gen.sequence_family()
    t = fam.build(20)
    cf = walks.sample_conductances(t, 0.3, seed=3)
    pf = walks.psi_field(t, cf, 20)
    for v in t.level_set(20)[:5]:
        total, x = 0.0, v
        while x != 0:
            total += pf.log_psi[x]
            x = t.parent(x)
        assert abs(total - pf.log_Psi[v]) < 1e-9


def test_psi_monotone_along_rays():
    fam = gen.sequence_family()
    t = fam.build(12)
    pf = walks.psi_field(t, walks.sample_conductances(t, 0.5, seed=8), 12)
    for v in range(1, t.n_vertices):
        if t.depth(v) >= 2:
            assert pf.log_Psi[v] <= pf.log_Psi[t.parent(v)] + 1e-12


def test_psi_gamblers_ruin_mc():
    # psi(e) for the deepest edge of a 4-path equals the chance that the
    # walk on the path, started at depth 3, hits depth 4 before the root
    t = gen.path_family().build(4)
    cf = walks.sample_conductances(t, 0.4, seed=21)
    pf = walks.psi_field(t, cf, 4)
    p_up = np.zeros(5)
    c = np.exp(cf)
    for n in range(1, 4):
        p_up[n] = c[n] / (c[n] + c[n + 1])
    gen_rng = rng.stream_rng(99, rng.WALK_STREAM)
    trials = 100_000
    pos = np.full(trials, 3)
    alive = np.ones(trials, dtype=bool)
    wins = np.zeros(trials, dtype=bool)
    while alive.any():
        u = gen_rng.random(int(alive.sum()))
        idx = np.flatnonzero(alive)
        up = u < p_up[pos[idx]]
        pos[idx] = np.where(up, pos[idx] - 1, pos[idx] + 1)
        hit_top = pos[idx] == 4
        hit_root = pos[idx] == 0
        wins[idx[hit_top]] = True
        alive[idx[hit_top | hit_root]] = False
    expect = math.exp(pf.log_psi[4])
    se = math.sqrt(max(expect * (1 - expect), 1e-9) / trials)
    assert abs(wins.mean() - expect) < 3 * se


def test_rt_all_ones_field_stays():
    t = gen.binary_family().build(8)
    pf = walks.PsiField(t, np.zeros(t.n_vertices), np.zeros(t.n_vertices),
                        np.zeros(t.n_vertices), 8)
    res = walks.rt_estimate(pf, (0.5, 1.0, 2.0), DepthSchedule((4, 8)))
    assert all(v == "below" for v in res.classifications.values())


def test_rt_deterministic_field_matches_level_oracle():
    # deterministic Psi = exp(-|e|**beta) on the sequence tree: the generic
    # min-cut must equal the level reduction from the size table
    fam = gen.sequence_family()
    t = fam.build(32)
    beta, gammas = 0.6, (0.5, 1.0, 1.5)
    d = t.depth_array().astype(float)
    log_Psi = np.empty(t.n_vertices)
    log_Psi[0] = np.nan
    log_Psi[1:] = -np.power(d[1:], beta)
    pf = walks.PsiField(t, log_Psi.copy(), log_Psi.copy(), log_Psi, 32)
    sched = DepthSchedule((8, 16, 32))
    res = walks.rt_estimate(pf, gammas, sched)
    lv = np.array([math.log2(float(x)) for x in gen.level_sizes(gen.sequence_degrees(32))])
    for g in gammas:
        for N, got in zip(sched.depths, res.trajectories[g]):
            n = np.arange(1, N + 1, dtype=float)
            oracle = (lv[1:N + 1] * math.log(2.0) - g * np.power(n, beta)).min()
            assert abs(got - oracle) < 1e-9


def _grown_tree(gen_rng, steps: int) -> Tree:
    """A tree grown by attaching, to a vertex drawn from all so far, either
    one leaf or a chain of single children: ids are out of level order,
    and the tree has dead branches and single-child chains."""
    parent, depth = [-1], [0]
    for _ in range(steps):
        p = int(gen_rng.integers(len(parent)))
        for _ in range(1 if gen_rng.random() < 0.5 else int(gen_rng.integers(2, 7))):
            parent.append(p)
            depth.append(depth[p] + 1)
            p = len(parent) - 1
    return Tree(parent, depth)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), steps=st.integers(1, 40),
       lam=st.floats(0.05, 0.95), sampled=st.booleans(),
       gammas=st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=3, unique=True),
       data=st.data())
def test_rt_estimate_matches_a_min_cut_per_gamma_and_depth(seed, steps, lam, sampled, gammas, data):
    # the sweep on the branch depths must give every value of one
    # flowcut.min_cut per (gamma, depth) exactly, with frontiers at any
    # depth, a branch depth or not, and a gamma whose weights overflow
    gen_rng = np.random.default_rng(seed)
    t = _grown_tree(gen_rng, steps)
    N = t.height()
    depths = sorted(data.draw(st.sets(st.integers(1, N), max_size=4)) | {N})
    log_c = (walks.sample_conductances(t, lam, seed) if sampled
             else walks.deterministic_conductances(t, lam))  # ties among siblings
    psi = walks.psi_field(t, log_c, N)
    grid = (*gammas, 1e308)
    res = walks.rt_estimate(psi, grid, DepthSchedule(tuple(depths)))
    assert res.trajectories == rt_trajectories_oracle(psi, grid, depths)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), steps=st.integers(1, 40),
       log_c=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=8))
def test_psi_field_log_Psi_never_rises_along_a_root_path(seed, steps, log_c):
    # rt_estimate's sweep on the branch depths rests on this, exactly
    t = _grown_tree(np.random.default_rng(seed), steps)
    field = np.resize(np.array(log_c), t.n_vertices)
    pf = walks.psi_field(t, field, t.height())
    v = np.arange(1, t.n_vertices)
    assert (pf.log_psi[v] <= 0.0).all()
    inner = v[t.depth_array()[v] >= 2]
    assert (pf.log_Psi[inner] <= pf.log_Psi[t.parent_array()[inner]]).all()


def test_coupled_percolation_ancestor_closure():
    fam = gen.sequence_family()
    t = fam.build(12)
    cf = walks.sample_conductances(t, 0.4, seed=4)
    open_mask, psi_c = walks.coupled_percolation(t, cf, 0.4, 12)
    for v in range(1, t.n_vertices):
        if t.depth(v) >= 2 and not open_mask[t.parent(v)] and t.depth(t.parent(v)) >= 1:
            if t.depth(v) > 1:
                assert not open_mask[v]
    assert all(open_mask[v] for v in t.level_set(1))
    for v in t.level_set(3):
        assert math.isclose(psi_c[v], 1.0 - 3.0 ** (0.4 - 1.0), rel_tol=1e-12)


def test_coupled_percolation_matches_product_law():
    # empirical opening frequency of a fixed deep edge over resamplings
    # equals the product of the per-depth laws
    t = gen.path_family().build(6)
    lam = 0.45
    hits = 0
    trials = 40_000
    for s in range(trials):
        cf = walks.sample_conductances(t, lam, seed=s)
        open_mask, _ = walks.coupled_percolation(t, cf, lam, 6)
        hits += bool(open_mask[6])
    expect = float(np.prod([1.0 - n ** (lam - 1.0) for n in range(2, 7)]))
    se = math.sqrt(expect * (1 - expect) / trials)
    assert abs(hits / trials - expect) < 3 * se


def test_coupled_percolation_factorizes_across_branches():
    # root with one child at depth 1 that has two depth-2 children:
    # openings of the two siblings are conditionally independent
    t = Tree([-1, 0, 1, 1], [0, 1, 2, 2])
    a, b = 2, 3
    lam = 0.5
    both = one_a = one_b = 0
    trials = 40_000
    for s in range(trials):
        cf = walks.sample_conductances(t, lam, seed=s)
        open_mask, _ = walks.coupled_percolation(t, cf, lam, 2)
        one_a += bool(open_mask[a])
        one_b += bool(open_mask[b])
        both += bool(open_mask[a] and open_mask[b])
    pa, pb, pab = one_a / trials, one_b / trials, both / trials
    se = 3 * math.sqrt(0.25 / trials) * 3
    assert abs(pab - pa * pb) < se
