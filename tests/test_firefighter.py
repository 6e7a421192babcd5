import itertools
import math
import sys

import numpy as np
import pytest

from conftest import all_cutsets, brute_force_fire, random_tree, symmetric_containment_oracle
from ibntrees import firefighter as ff
from ibntrees import generators as gen
from ibntrees import nathanson
from ibntrees.flowcut import DepthSchedule, ibn_log_weights, min_cut, min_cut_symmetric
from ibntrees.rng import stream_rng
from ibntrees.trees import Tree


def unit_budget(n=1):
    return ff.BudgetSchedule(lambda r: n)


def test_new_game_ball_sizes():
    t = gen.binary_family().build(4)
    assert ff.new_game(t, 0, unit_budget()).fire_size == 1
    assert ff.new_game(t, 2, unit_budget()).fire_size == 7
    seq = gen.sequence_family().build(6)
    assert ff.new_game(seq, 1, unit_budget()).fire_size == 2


def test_new_game_radius_error():
    t = gen.path_family().build(3)
    with pytest.raises(ValueError):
        ff.new_game(t, 3, unit_budget())


def test_step_spread_and_freeze():
    t = gen.path_family().build(6)
    g = ff.new_game(t, 1, unit_budget())
    g2 = ff.step(g, [])  # no protection: fire advances one level
    assert g2.fire_size == 3
    g3 = ff.step(g2, [t.level_set(4)[0]])
    g4 = ff.step(g3, [])
    assert g3.fire_size == g4.fire_size == 4  # frozen behind the protected vertex


def test_step_rejects_illegal_protection():
    t = gen.path_family().build(6)
    g = ff.new_game(t, 1, unit_budget(1))
    with pytest.raises(ValueError):
        ff.step(g, t.level_set(3) + t.level_set(4))  # budget exceeded
    with pytest.raises(ValueError):
        ff.step(g, [t.level_set(1)[0]])  # already burning


def test_budget_schedule_family():
    b = ff.BudgetSchedule.exponential(1.0, 0.8)
    assert b(1) == int(math.exp(1.0))
    assert b(3) == int(math.exp(3.0 ** 0.8))
    with pytest.raises(ValueError):
        ff.BudgetSchedule.exponential(0.0, 0.5)


def test_budget_schedule_caps_at_maxsize():
    # exp(n**gamma) overflows a float from n**gamma > 709.78 on; K * exp(1)
    # overflows for K = 1e308: both budgets are capped, smaller ones kept
    b = ff.BudgetSchedule.exponential(1.0, 0.9)
    assert b(1600) == sys.maxsize
    assert b(50) == int(math.exp(50 ** 0.9))
    assert ff.BudgetSchedule.exponential(1e308, 0.8)(1) == sys.maxsize
    big = ff.BudgetSchedule.exponential(1e18, 0.5)
    assert big(4) == int(1e18 * math.exp(2.0))  # 7.4e18, below the cap
    assert big(9) == sys.maxsize                # 2.0e19
    # exp(1500**0.9) overflows, but K * exp(1500**0.9) is about 4e13
    tiny = ff.BudgetSchedule.exponential(1e-300, 0.9)
    assert tiny(1500) == int(math.exp(math.log(1e-300) + 1500 ** 0.9))


def test_surrounding_set_from_level_cut():
    t = gen.binary_family().build(5)
    k = 1
    level = t.level_set(k + 1)
    s = ff.surrounding_set_from_cutset(t, level, k)
    assert set(s) == set(level)
    with pytest.raises(ValueError):
        ff.surrounding_set_from_cutset(t, t.level_set(k), k)


def test_greedy_play_path_contained():
    t = gen.path_family().build(8)
    s = (t.level_set(3)[0],)
    res = ff.greedy_play(t, 2, unit_budget(1), s)
    assert res.contained and res.reason == "fire frozen"


def test_greedy_play_zero_budgets_burn_to_the_surrounding_set():
    # with no protection the fire stops only at the truncation's edge: not contained
    t = gen.binary_family().build(4)
    s = ff.surrounding_set_from_cutset(t, t.level_set(4), 1)
    res = ff.greedy_play(t, 1, unit_budget(0), s)
    assert not res.contained and res.reason == "fire reached the surrounding set"
    assert res.fire_size == t.n_vertices and res.protected_size == 0
    # one protection a round holds a single-vertex set
    path = gen.path_family().build(6)
    held = ff.greedy_play(path, 1, unit_budget(1), path.level_set(4))
    assert held.contained and held.protected_size == 1


def test_greedy_play_respects_budget_accounting():
    # on every contained run the cumulative budget covers the protected set
    fam = gen.sequence_family()
    sched = DepthSchedule((8, 16, 32))
    att = ff.attempt_containment(fam, 2, 0.8, 1.0, sched)
    assert att.contained
    t = fam.build(att.cut_depth)
    budgets = ff.BudgetSchedule.exponential(1.0, 0.8)
    s = ff.surrounding_set_from_cutset(t, t.level_set(8), 2)
    res = ff.greedy_play(t, 2, budgets, s)
    assert res.contained
    for rnd, fire, prot in res.history[1:]:
        assert prot <= sum(budgets(i) for i in range(1, rnd + 1))


def test_greedy_play_matches_brute_force():
    # the greedy's protection rounds replayed in closed form: the game ends
    # in the first round a surrounding vertex burns or the fire stops
    outcomes = set()
    for seed in range(30):
        t = random_tree(seed, 6, extra=10)
        rng = stream_rng(seed, 12)
        table = rng.integers(0, 4, size=t.height() + 2)  # budgets 0-3
        budgets = ff.BudgetSchedule(lambda n: int(table[n]))
        for k in (0, 1):
            cuts = [c for c in all_cutsets(t, t.height())
                    if c and min(t.depth(v) for v in c) > k]
            surrounding = cuts[int(rng.integers(len(cuts)))]
            res = ff.greedy_play(t, k, budgets, surrounding)
            assert res.rounds <= t.height() - k + 1
            order = sorted(surrounding, key=lambda v: (t.depth(v), v))
            protections, pos = {}, 0
            for rnd in range(1, res.rounds + 1):
                protections[rnd] = order[pos:pos + budgets(rnd)]
                pos += len(protections[rnd])
            burning, protected = brute_force_fire(t, k, protections, res.rounds)
            before, _ = brute_force_fire(t, k, protections, res.rounds - 1)
            assert (res.fire_size, res.protected_size) == (len(burning), len(protected))
            assert not before & set(surrounding), (seed, k)
            if burning & set(surrounding):
                assert not res.contained and res.reason == "fire reached the surrounding set"
            else:
                assert burning == before and res.reason == "fire frozen"
                assert res.contained == (protected == set(surrounding)), (seed, k)
            outcomes.add(res.contained)
    assert outcomes == {True, False}


def dead_branch_tree() -> Tree:
    """The root's first child heads a complete binary subtree down to depth
    8, its second child a bare path that ends at depth 7: 263 vertices."""
    parent, depth = [-1], [0]

    def add(p: int) -> int:
        parent.append(p)
        depth.append(depth[p] + 1)
        return len(parent) - 1

    level, tip = [add(0)], add(0)
    while depth[level[0]] < 8:
        level = [add(v) for v in level for _ in range(2)]
    while depth[tip] < 7:
        tip = add(tip)
    return Tree(parent, depth)


def test_containment_plays_until_the_fire_stops_on_a_dead_branch():
    # the min-cut is the edge into vertex 1; protecting it in round 1 leaves
    # the fire 6 more rounds down the bare path before it stops
    t = dead_branch_tree()
    assert (t.n_vertices, t.height()) == (263, 8)
    _, attempts = ff.lambda_c_estimate(t, 0, (0.5,), 1.0, DepthSchedule((8,)))
    att = attempts[0.5]
    assert att.contained and att.reason == "fire frozen"
    assert (att.fire_size, att.protected_size) == (8, 1)
    burning, _ = brute_force_fire(t, 0, {1: [1]}, 8)
    assert len(burning) == 8


def test_tree_route_builds_one_truncation(monkeypatch):
    calls = []
    build = gen.TreeFamily.build

    def counted(self, N):
        calls.append(N)
        return build(self, N)

    monkeypatch.setattr(gen.TreeFamily, "build", counted)
    fam = gen.three_one_family()
    ff.lambda_c_estimate(fam, 2, (0.3, 0.6, 0.9), 1.0, DepthSchedule((8, 16, 28)))
    assert calls == [28]
    # a schedule past the vertex cap fails before any rate is tried
    monkeypatch.setattr(ff, "attempt_containment", None)
    with pytest.raises(gen.MemoryCapError):
        ff.lambda_c_estimate(fam, 2, (0.3, 0.6), 1.0, DepthSchedule((8, 1000)))


def test_fire_spread_matches_brute_force():
    for seed in range(40):
        t = random_tree(seed, 6, extra=14)
        gen_rng = stream_rng(seed, 11)
        protections: dict[int, list[int]] = {}
        state = ff.new_game(t, 1, ff.BudgetSchedule(lambda n: 2))
        for rnd in range(1, 5):
            free = [v for v in range(t.n_vertices)
                    if not state.burning[v] and not state.protected[v]]
            take = [int(v) for v in gen_rng.choice(len(free), size=min(2, len(free)),
                                                   replace=False)] if free else []
            chosen = [free[i] for i in take]
            protections[rnd] = chosen
            state = ff.step(state, chosen)
            burning, _ = brute_force_fire(t, 1, protections, rnd)
            assert burning == set(np.flatnonzero(state.burning)), (seed, rnd)


def test_containment_monotone_in_initial_fire():
    # same protection sequence contains every subset of the initial ball
    t = gen.sequence_family().build(10)
    budgets = ff.BudgetSchedule.exponential(1.0, 0.8)
    surrounding = ff.surrounding_set_from_cutset(t, t.level_set(5), 2)
    full = ff.greedy_play(t, 2, budgets, surrounding)
    assert full.contained
    order = sorted(surrounding, key=lambda v: (t.depth(v), v))
    state = ff.new_game(t, 0, budgets)  # only the root burns: the ball B(0)
    pos = 0
    for rnd in range(1, 12):
        budget = budgets(rnd)
        chosen = []
        while pos < len(order) and len(chosen) < budget:
            if not state.burning[order[pos]]:
                chosen.append(order[pos])
            pos += 1
        before = state.fire_size
        state = ff.step(state, chosen)
        if state.fire_size == before:
            break
    assert state.fire_size == before  # frozen for the smaller fire too


def test_lambda_c_sequence_bracket():
    fam = gen.sequence_family()
    sched = DepthSchedule((8, 16, 32, 64, 128, 200))
    res, attempts = ff.lambda_c_estimate(fam, 2, (0.2, 0.4, 0.6, 0.8), 1.0, sched)
    assert not attempts[0.2].contained
    assert attempts[0.8].contained
    lo, hi = res.interval()
    assert max(lo, 0.3) <= min(hi, 0.7)


def test_lambda_c_path_contained_everywhere():
    _, attempts = ff.lambda_c_estimate(gen.path_family(), 2, (0.2, 0.5, 0.8), 1.0,
                                       DepthSchedule((64, 256, 1024)))
    assert all(a.contained for a in attempts.values())


def test_lambda_c_binary_fails_everywhere():
    _, attempts = ff.lambda_c_estimate(gen.binary_family(), 2, (0.3, 0.6, 0.9), 1.0,
                                       DepthSchedule((8, 16, 24)))
    assert not any(a.contained for a in attempts.values())


def game_on_min_cut(source, k, gamma, K, schedule):
    """attempt_containment played out: greedy_play on the surrounding set of
    the min-cut at every scheduled depth, on the truncation at the deepest
    one; a symmetric family's min-cut level L is played on build(L).
    Returns the attempt (None when no cut qualifies) and, per game played,
    the number of depths its surrounding set spans."""
    eps = ff.containment_margin(k, gamma)
    budgets = ff.BudgetSchedule.exponential(K, gamma)
    symmetric = isinstance(source, gen.TreeFamily) and source.branches is not None
    last, spans = None, []
    for N in schedule.depths:
        if N <= k + 1:
            continue
        if symmetric:
            log_val, level = min_cut_symmetric(source.level_log2_sizes(schedule.depths[-1]),
                                               gamma, N)
            if log_val >= math.log(eps):
                continue
            t = source.build(level)
            surrounding = t.level_set(level)
        else:
            t = gen.truncation(source, schedule.depths[-1])
            res = min_cut(t, ibn_log_weights(t, gamma), N)
            if res.log_value >= math.log(eps):
                continue
            surrounding = ff.surrounding_set_from_cutset(t, res.cut, k)
        spans.append(len(set(t.depth_array()[list(surrounding)].tolist())))
        last = ff.greedy_play(t, k, budgets, surrounding)
        if last.contained:
            return ff.ContainmentAttempt(gamma, True, N, last.reason,
                                         last.fire_size, last.protected_size), spans
    if last is None:
        return None, spans
    return ff.ContainmentAttempt(gamma, False, None, f"greedy protection too slow: {last.reason}",
                                 last.fire_size, last.protected_size), spans


SYMMETRIC_GRID = ((0, 1, 2, 3), (1e-9, 0.5, 1.0, 3.0), (0.1, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9))
TREE_GRID = ((0, 1, 2), (1e-9, 0.5, 1.0, 3.0), (0.2, 0.4, 0.6, 0.8))


def tree_cases(trees):
    """Each tree with the schedules N = 5, N = 8 and N = its height, alone
    and together."""
    return [(t, DepthSchedule(s)) for t in trees
            for s in ((5,), (8,), (t.height(),), (5, 8, t.height()))]


@pytest.mark.parametrize("cases, grid", [
    (lambda: [(gen.sequence_family(), DepthSchedule((8, 16, 32, 64)))], SYMMETRIC_GRID),
    (lambda: [(gen.binary_family(), DepthSchedule((4, 8, 12)))], SYMMETRIC_GRID),
    (lambda: [(gen.path_family(), DepthSchedule((8, 32, 128)))], SYMMETRIC_GRID),
    (lambda: [(gen.marks_family([n % 3 == 0 for n in range(30)]),
               DepthSchedule((8, 16, 24, 30)))], SYMMETRIC_GRID),
    (lambda: tree_cases([random_tree(seed, 9, extra=20) for seed in range(40)]), TREE_GRID),
    (lambda: tree_cases([gen.three_one_stretched(45)]), TREE_GRID),
    (lambda: tree_cases([nathanson.lex_tree(20).tree]), TREE_GRID),
], ids=["seq", "binary", "path", "marks", "random-trees", "three-one", "lex-20"])
def test_symmetric_closed_form_matches_the_game(cases, grid):
    # the count rule against the game it replaces, on every route; K = 1e-9
    # keeps every budget at 0 here: nothing is protected
    played, outcomes, spans = 0, set(), []
    for source, sched in cases():
        for k, K, gamma in itertools.product(*grid):
            want, games = game_on_min_cut(source, k, gamma, K, sched)
            got = ff.attempt_containment(source, k, gamma, K, sched)
            if want is None:
                assert got.fire_size == -1 and got.reason.startswith("no cutset")
            else:
                assert got == want, (k, K, gamma, sched.depths)
                played += 1
                outcomes.add(got.contained)
                spans += games
    assert played > 0
    if grid is TREE_GRID:
        assert outcomes == {True, False}
        assert max(spans) > 1  # some surrounding set lies at several depths


def test_count_rule_rejects_a_cut_inside_the_ball():
    budgets = ff.BudgetSchedule.exponential(1.0, 0.5)
    with pytest.raises(ValueError, match=r"cutset touches B\(2\)"):
        ff._count_rule(0.5, 8, 2, budgets, [(2, 1, 3), (3, 3, 6)], 6)
    # one vertex at depth 3, paid for in round 1: levels 0..2 burn
    held = ff._count_rule(0.5, 8, 2, budgets, [(3, 1, 6)], 6)
    assert held == ff.ContainmentAttempt(0.5, True, 8, "fire frozen", 6, 1)


@pytest.mark.parametrize("family, schedules", [
    (gen.sequence_family(), ((8, 16, 32), (8, 64, 1000), (4000,))),
    (gen.binary_family(), ((4, 8), (8, 40, 90), (130,))),
    (gen.path_family(), ((8, 32), (8, 128, 1000))),
    (gen.marks_family(np.random.default_rng(3).random(600) < 0.5), ((8, 64), (16, 200, 600))),
], ids=["seq", "binary", "path", "marks"])
def test_symmetric_counts_match_the_level_sizes_oracle(family, schedules):
    # the set's size and the free count from the branch depths against the
    # exact level sizes, past int64 on the deep seq and marks schedules
    # (binary's cut is level 1 at every gamma below 1)
    outcomes, largest = set(), 0
    for depths, k, K, gamma in itertools.product(schedules, (0, 2, 5), (1e-9, 1.0, 50.0),
                                                 (0.1, 0.3, 0.5, 0.6, 0.7, 0.9)):
        att = ff.attempt_containment(family, k, gamma, K, DepthSchedule(depths))
        want = symmetric_containment_oracle(family, k, gamma, K, DepthSchedule(depths))
        assert (att.contained, att.fire_size, att.protected_size) == want, (depths, k, K, gamma)
        outcomes.add(att.contained)
        largest = max(largest, att.fire_size)
    assert True in outcomes
    if family.name != "path":
        assert False in outcomes
    assert (largest > 2 ** 63) == (family.name in ("seq", "marks"))


def test_symmetric_containment_builds_no_tree(monkeypatch):
    def refuse(self, N):
        raise AssertionError(f"{self.name} built a depth-{N} truncation")

    monkeypatch.setattr(gen.TreeFamily, "build", refuse)
    big = gen.marks_family([True] * 40)  # levels 40 and below hold 2**40 vertices each
    sched = DepthSchedule((8, 32, 64))
    for fam, gamma in ((gen.sequence_family(), 0.6), (big, 0.9)):
        for K in (1.0, 1e-9):  # contained; then budgets far too small
            att = ff.attempt_containment(fam, 2, gamma, K, sched)
            assert att.contained == (K == 1.0) and att.fire_size > 0, (fam.name, K)
    # the fire holds all of levels 0..64 that the budgets did not pay for
    assert att.fire_size + att.protected_size == sum(gen.level_sizes(big.degrees(64)))
