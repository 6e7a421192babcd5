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
    # block, so every in-place refill leaves an unread tail, which must be
    # moved to the front and read first
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


# Chunk boundaries.  The walkers advance in chunks of K steps in which no
# walker can stop before the last: K is at most the least live depth,
# stop_depth less the greatest, and the steps left before step_cap.  Each
# case below makes one of these bounds the one that ends a chunk.

def test_a_stop_depth_the_deepest_walkers_close_in_on_matches():
    # the escaped walkers climb to stop_depth with the shallowest of them
    # far from the root, so stop_depth less the deepest live depth ends
    # the chunks, down to one step
    degrees = FAMILIES["seq"].degrees(512)
    for stop_depth, seed in ((150, 4), (40, 8)):
        args = (512, 2000, 30_000, seed, stop_depth)
        _assert_identical(walks.depth_walk_batch(degrees, 0.3, *args),
                          reference_depth_walk(degrees, 0.3, *args))


@pytest.mark.parametrize("cap", [333, 777, 2500])
def test_a_step_cap_that_cuts_a_chunk_short_matches(cap):
    # by step 333 the live walkers are far from the root, and at these caps
    # the last chunk, which the least live depth would let run on, ends on
    # the cap
    degrees = FAMILIES["seq"].degrees(512)
    args = (512, 2000, cap, 2, None)
    got = walks.depth_walk_batch(degrees, 0.3, *args)
    assert (got[1] == cap).sum() > 100
    _assert_identical(got, reference_depth_walk(degrees, 0.3, *args))


def test_a_lone_walker_reaching_the_root_on_a_chunks_last_step_matches():
    # a lone walker at depth d runs a chunk of d steps and can reach the
    # root only on its last, so every return here ends a chunk
    for family, lam in (("path", 0.0), ("seq", 0.7), ("binary", 0.0)):
        fam = FAMILIES[family]
        tree = fam.build(5)
        log_c = walks.deterministic_conductances(tree, lam)
        returns = 0
        for seed in range(25):
            args = (5, 1, 400, seed, None)
            got = walks.depth_walk_batch(fam.degrees(5), lam, *args)
            _assert_identical(got, reference_depth_walk(fam.degrees(5), lam, *args))
            _assert_identical(walks.simulate_walk(tree, log_c, *args),
                              reference_tree_walk(tree, log_c, *args))
            returns += int(got[0][0] and got[1][0] > 2)
        assert returns >= 5


def test_chunks_that_span_a_buffer_refill_match():
    # about 150 walkers escape on the unit-conductance binary tree; their
    # chunks read over 6 buffers of 2**16 uniforms, and the unread tail of
    # each buffer is the head of the next chunk; the truncation is deep
    # enough that the last draws still set the maximum depths
    fam = gen.binary_family()
    args = (fam.degrees(4096), 0.0, 4096, 300, 3000, 11)
    got = walks.depth_walk_batch(*args)
    assert got[1].sum() - 300 > 6 * walks._BLOCK
    _assert_identical(got, reference_depth_walk(*args))


def test_the_tree_walker_with_a_stop_depth_matches():
    for fam, N, lam, stop_depth in ((gen.three_one_family(), 28, 0.1, 20),
                                    (gen.sequence_family(), 12, 0.3, 9),
                                    (gen.binary_family(), 5, 0.0, 5)):
        tree = fam.build(N)
        log_c = walks.deterministic_conductances(tree, lam)
        args = (tree, log_c, N, 500, 3000, 13, stop_depth)
        got = walks.simulate_walk(*args)
        assert (got[2] == stop_depth).any()
        _assert_identical(got, reference_tree_walk(*args))


@pytest.mark.parametrize("seed", [1, 7])
def test_the_benchmark_transient_walk_matches(seed):
    # walk --family seq --lambda 0.3 --depth 512 --trials 2000 --cap 30000
    degrees = FAMILIES["seq"].degrees(512)
    args = (degrees, 0.3, 512, 2000, 30_000, seed)
    _assert_identical(walks.depth_walk_batch(*args), reference_depth_walk(*args))


@pytest.mark.parametrize("trials, N, cap, seed", [(5, 4096, 60_000, 0),
                                                  (walks._FIRST_FILL + 1, 64, 40, 2)])
def test_refills_while_the_filled_part_of_the_buffer_grows_match(trials, N, cap, seed):
    # the first refill fills max(_FIRST_FILL, trials) doubles and each later
    # one twice as many, up to the whole buffer; these walks read past two
    # buffers, so their chunks cross every growing refill: few walkers with
    # a small first fill, and more walkers than _FIRST_FILL
    fam = gen.binary_family()
    args = (fam.degrees(N), 0.0, N, trials, cap, seed)
    got = walks.depth_walk_batch(*args)
    assert got[1].sum() - trials > 2 * walks._BLOCK
    _assert_identical(got, reference_depth_walk(*args))
