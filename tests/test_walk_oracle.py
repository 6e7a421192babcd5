"""The batch walkers against a frozen reference loop.

reference_depth_walk and reference_tree_walk are the walk loop as it stood
before the uniforms were drawn in blocks and the walker state became a
next-state table index: one gen.random(m) per step and a move returning
(position, depth).  The walkers must reproduce their (returned, steps,
max_depth) arrays exactly, values and dtypes.
"""

import itertools

import numpy as np
import pytest

from ibntrees import generators as gen
from ibntrees import rng, walks

NEG_INF = float("-inf")


def _reference_batch(move, start, trials, step_cap, seed, stop_depth):
    if step_cap < 1 or trials < 1:
        raise ValueError("need step_cap >= 1 and trials >= 1")
    if stop_depth is not None and stop_depth <= start:
        step_cap = start
    g = rng.stream_rng(seed, rng.WALK_STREAM)
    pos = np.full(trials, start, dtype=np.int64)
    maxd = pos.copy()
    returned = np.zeros(trials, dtype=bool)
    final_steps = np.full(trials, step_cap, dtype=np.int64)
    idx = np.arange(trials)
    step = start
    while step < step_cap and len(idx) > 0:
        pos, depth = move(pos, g.random(len(idx)))
        step += 1
        maxd[idx] = np.maximum(maxd[idx], depth)
        done = depth == 0
        if stop_depth is not None:
            done |= depth >= stop_depth
        if done.any():
            returned[idx[done]] = depth[done] == 0
            final_steps[idx[done]] = step
            idx, pos = idx[~done], pos[~done]
    return returned, final_steps, maxd


def reference_tree_walk(tree, log_c, N, trials, step_cap, seed, stop_depth=None):
    d, par = tree.depth_array(), tree.parent_array()
    kids = np.arange(1, tree.n_vertices)
    order = np.argsort(np.concatenate([kids, par[1:]]), kind="stable")
    nbr = np.concatenate([par[1:], kids])[order]
    edge = np.concatenate([kids, kids])[order]
    w = np.where(d[edge] <= N, log_c[edge], NEG_INF)
    counts = tree.n_children_array() + (np.arange(tree.n_vertices) > 0)
    starts = np.cumsum(counts) - counts
    top = np.maximum.reduceat(w, starts)
    top[np.isneginf(top)] = 0.0
    cum = np.cumsum(np.exp(w - np.repeat(top, counts)))
    base = np.concatenate([[0.0], cum])[starts]
    last = np.searchsorted(cum, cum[starts + counts - 1])
    span = cum[last] - base

    def move(pos, u):
        k = np.minimum(np.searchsorted(cum, base[pos] + u * span[pos], side="right"), last[pos])
        return nbr[k], d[nbr[k]]

    return _reference_batch(move, 0, trials, step_cap, seed, stop_depth)


def reference_depth_walk(degrees, lam, N, trials, step_cap, seed, stop_depth=None):
    n = np.arange(1, N + 1, dtype=float)
    d = np.append(np.asarray(degrees[1:N], dtype=float), 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.power(n + 1, lam) - np.power(n, lam)
    p_up = np.concatenate([[0.0], 1.0 / (1.0 + d * np.exp(-gap))])

    def move(pos, u):
        pos = np.where(u < p_up[pos], pos - 1, pos + 1)
        return pos, pos

    return _reference_batch(move, 1, trials, step_cap, seed, stop_depth)


def _assert_identical(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


FAMILIES = {"seq": gen.sequence_family(), "binary": gen.binary_family(),
            "path": gen.path_family()}
CASES = list(itertools.product((None, 1, 3, "N"), (1, 2, 7, 500)))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("N", [1, 2, 5, 33])
def test_walkers_match_the_reference_loop(family, N):
    fam = FAMILIES[family]
    degrees = fam.degrees(N)
    # the tree walker needs the truncation itself: the binary tree stops at depth 5
    tree = fam.build(N) if family != "binary" or N <= 5 else None
    for lam in (0, 0.3, 0.9, 3):
        log_c = None if tree is None else walks.deterministic_conductances(tree, lam)
        for k, (stop, cap) in enumerate(CASES):
            stop_depth = N if stop == "N" else stop
            args = (N, 40, cap, 100 * N + k, stop_depth)
            _assert_identical(walks.depth_walk_batch(degrees, lam, *args),
                              reference_depth_walk(degrees, lam, *args))
            if tree is not None:
                _assert_identical(walks.simulate_walk(tree, log_c, *args),
                                  reference_tree_walk(tree, log_c, *args))


def test_draws_that_cross_block_refills_mid_step_match():
    # half of the walks escape on the unit-conductance binary tree and run
    # to the cap, drawing over 13 blocks of 2**16 uniforms (one per step
    # after the forced first); 3001 live walkers or fewer never divide a
    # block, so refills fall inside steps
    fam = gen.binary_family()
    args = (fam.degrees(64), 0.0, 64, 3001, 600, 5)
    assert walks.depth_walk_batch(*args)[1].sum() - 3001 > 13 * walks._BLOCK
    _assert_identical(walks.depth_walk_batch(*args), reference_depth_walk(*args))


def test_a_batch_larger_than_a_block_matches():
    # 70 000 live walkers draw more than one block in a step
    fam = gen.binary_family()
    args = (fam.degrees(5), 0.5, 5, walks._BLOCK + 4464, 9, 6)
    _assert_identical(walks.depth_walk_batch(*args), reference_depth_walk(*args))
    tree = fam.build(5)
    targs = (tree, walks.deterministic_conductances(tree, 0.5), *args[2:])
    _assert_identical(walks.simulate_walk(*targs), reference_tree_walk(*targs))
