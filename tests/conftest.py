"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import neg
from pathlib import Path

import numpy as np
import pytest

import ibntrees
from ibntrees import flowcut, grigorchuk, rng
from ibntrees.generators import LOG2, LevelReader, base_level_at_depth
from ibntrees.trees import Tree

CLI = [sys.executable, "-m", "ibntrees.cli"]
# The directory holding the imported package, so a child process started in
# any working directory runs the same code as the tests (src/ or an install).
PACKAGE_ROOT = str(Path(ibntrees.__file__).resolve().parent.parent)


def run_cli(args, cwd, env=None) -> subprocess.CompletedProcess:
    """Run `python -m ibntrees.cli ARGS` in cwd and return the finished process.

    The child gets PACKAGE_ROOT first on PYTHONPATH (existing entries kept
    after it) and env merged on top.  A child that cannot import the package
    fails the test here, so no exit-code assertion can pass on it.
    """
    full_env = dict(os.environ)
    inherited = full_env.get("PYTHONPATH")
    full_env["PYTHONPATH"] = PACKAGE_ROOT + (os.pathsep + inherited if inherited else "")
    if env:
        full_env.update(env)
    proc = subprocess.run(CLI + args, cwd=cwd, env=full_env,
                          capture_output=True, text=True)
    if "No module named 'ibntrees" in proc.stderr:
        pytest.fail(f"child could not import ibntrees:\n{proc.stderr}")
    return proc


def sequence_degree_oracle(n: int) -> int:
    """The sequence tree's scalar degree rule: 2 exactly at n = k(k+3)/2,
    k >= 1, found by an integer square root; 1 elsewhere, the root included."""
    if n == 0:
        return 1
    k = (math.isqrt(8 * n + 9) - 3) // 2
    return 2 if any(kk >= 1 and kk * (kk + 3) == 2 * n for kk in (k, k + 1)) else 1


def random_tree(seed: int, max_depth: int, extra: int = 12, ensure_depth: bool = True) -> Tree:
    """Small random tree; optionally guaranteed to reach max_depth."""
    gen = np.random.default_rng(seed)
    parent, depth = [-1], [0]

    def attach(p: int) -> None:
        parent.append(p)
        depth.append(depth[p] + 1)

    for _ in range(extra):
        candidates = [v for v in range(len(parent)) if depth[v] < max_depth]
        attach(int(gen.choice(candidates)))
    if ensure_depth:
        while max(depth) < max_depth:
            attach(max(range(len(parent)), key=depth.__getitem__))
    return Tree(parent, depth)


def all_cutsets(t: Tree, N: int) -> list[list[int]]:
    """Every minimal cutset of the depth-N truncation, by direct recursion.

    Kept independent of the production recursion: options below a vertex
    are 'cut the edge into it' or a product over children; dead branches
    need nothing.
    """

    def options(v: int) -> list[list[int]]:
        if t.depth(v) == N:
            return [[v]]
        kids = t.children(v)
        if not kids:
            return [[]]
        combos: list[list[int]] = [[]]
        for c in kids:
            combos = [x + y for x in combos for y in options(c)]
        return [[v]] + combos

    combos: list[list[int]] = [[]]
    for c in t.children(0):
        combos = [x + y for x in combos for y in options(c)]
    return combos


def text_rows_oracle(ids, parent, depth) -> str:
    """The lines `<id> <parent> <depth>` by `%` formatting, as the tree-file
    writer made them before it built bytes in numpy."""
    block = np.stack([np.asarray(ids), np.asarray(parent), np.asarray(depth)], axis=1)
    return ("%d %d %d\n" * len(block)) % tuple(block.ravel().tolist())


def tree_text_oracle(t: Tree) -> str:
    """Tree.to_text by text_rows_oracle."""
    n = t.n_vertices
    return "0 - 0\n" + text_rows_oracle(np.arange(1, n), t.parent_array()[1:], t.depth_array()[1:])


def is_cutset(t: Tree, edges, frontier_depth: int) -> bool:
    """True iff every path from the root to a depth-`frontier_depth` vertex
    contains exactly one edge of `edges` (edges given as child endpoints)."""
    edges = list(edges)
    d = t.depth_array()
    if edges and frontier_depth < int(d[np.asarray(edges)].max()):
        raise ValueError("frontier_depth shallower than the cutset")
    frontier = d == frontier_depth
    if not frontier.any():
        return False
    member = np.zeros(t.n_vertices, dtype=np.int64)
    member[np.asarray(edges, dtype=np.int64)] = 1 if edges else 0
    hits = t.sweep_down(np.add, np.zeros(t.n_vertices, dtype=np.int64),
                        member, frontier_depth)  # cut edges on each root path
    return bool((hits[frontier] == 1).all())


def cutset_weight(t: Tree, cut, lam: float) -> float:
    d = t.depth_array()
    return sum(math.exp(-float(d[v]) ** lam) for v in cut)


def rt_trajectories_oracle(psi, gamma_grid, depths) -> dict[float, tuple[float, ...]]:
    """walks.rt_estimate's trajectories by one flowcut.min_cut sweep of the
    whole truncation per (gamma, depth), every level folded."""
    out = {}
    for g in sorted(gamma_grid):
        with np.errstate(over="ignore"):  # log Psi <= 0, so an overflow is -inf
            w = g * psi.log_Psi
        w[0] = np.nan
        out[g] = tuple(flowcut.min_cut(psi.tree, w, N, want_cut=False).log_value for N in depths)
    return out


def brute_force_fire(tree: Tree, k: int, protections: dict[int, list[int]],
                     rounds: int) -> tuple[set[int], set[int]]:
    """Closed-form fire evolution: a vertex burns at round max(0, |v|-k)
    unless some ancestor-or-self was protected at a round no later than the
    fire's arrival there.  protections maps round -> vertex list.
    """
    depths = tree.depth_array()
    protected_round: dict[int, int] = {}
    for r, vs in protections.items():
        for v in vs:
            protected_round[v] = min(r, protected_round.get(v, r))

    burning: set[int] = set()
    for v in range(tree.n_vertices):
        arrival = None
        blocked = False
        u = v
        chain = []
        while True:
            chain.append(u)
            if u == 0:
                break
            u = tree.parent(u)
        for u in reversed(chain):  # root downward
            a = max(0, int(depths[u]) - k)
            if u in protected_round and protected_round[u] <= a:
                blocked = True
                break
            arrival = a
        if not blocked and arrival is not None and arrival <= rounds:
            burning.add(v)
    return burning, set(protected_round)


def act_point_oracle(letter: str, prefix: str) -> str:
    """grigorchuk.act_point by its own walk down the sections: an `a` flips
    the first letter of prefix.111..., and b, c, d descend through the 1s
    until a 0 dispatches to a section, which flips the next letter if it is
    `a`; past the prefix the all-ones tail is fixed."""
    if letter == "a":
        bits = prefix if prefix else "1"
        return (("1" if bits[0] == "0" else "0") + bits[1:]).rstrip("1")
    g, i = letter, 0
    while g is not None and g != "a":
        if i >= len(prefix):
            return prefix  # all-ones tail: b, c, d act trivially
        if prefix[i] == "0":
            g = grigorchuk.SECTIONS[g][0]
            if g == "a":
                j = i + 1
                bits = prefix + "1" * (j + 1 - len(prefix)) if j >= len(prefix) else prefix
                return (bits[:j] + ("1" if bits[j] == "0" else "0") + bits[j + 1:]).rstrip("1")
            return prefix
        g = grigorchuk.SECTIONS[g][1]
        i += 1
    return prefix


def act_point_word(word: str, prefix: str) -> str:
    """A word's action on one point of the orbit of 1^infinity, letter by
    letter through grigorchuk.act_point."""
    for ch in word:
        prefix = grigorchuk.act_point(ch, prefix)
    return prefix


def search_word_oracle(n: int, beam: int = 256, seed: int = 0) -> str:
    """grigorchuk.search_word on a dict from orbit frozensets to words.

    Each state is extended by each generator through grigorchuk._orbit_step
    in insertion order, the first word reaching an orbit keeps it, and a
    beam ranks by orbit size then by one permutation draw per step.  The
    search must return this word and fill the same image tables.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = rng.stream_rng(seed, rng.SEARCH_STREAM)
    states: dict[frozenset[str], str] = {frozenset({grigorchuk.X0}): ""}
    for _ in range(n):
        nxt: dict[frozenset[str], str] = {}
        for orbit, word in states.items():
            for ch in grigorchuk.GENERATORS:
                no = grigorchuk._orbit_step(orbit, ch)
                if no not in nxt:
                    nxt[no] = word + ch
        if len(nxt) > beam:
            keys = list(nxt.keys())
            order = gen.permutation(len(keys))
            ranked = sorted(range(len(keys)), key=lambda i: (-len(keys[i]), order[i]))
            nxt = {keys[i]: nxt[keys[i]] for i in ranked[:beam]}
        states = nxt
    return max(states.items(), key=lambda kv: len(kv[0]))[1]


def erase_pass_oracle(word: str) -> str:
    """grigorchuk._erase_pass with a keep mask: from each start, the first
    letter L over which the orbit size stays flat and that begins a trivial
    segment inside its flat stretch loses the longest such segment, and the
    next start is the letter after it."""
    sizes = grigorchuk.orbit_sizes(word)
    n = len(word)
    keep = [True] * n
    start = 1  # 1-indexed candidate for the next loop start
    while start <= n:
        found = None
        for L in range(start, n + 1):
            base = sizes[L - 1]
            if sizes[L] != base:
                continue
            end = L
            while end + 1 <= n and sizes[end + 1] == base:
                end += 1
            for U in range(end, L, -1):
                if grigorchuk.is_trivial(word[L - 1:U]):
                    found = (L, U)
                    break
            if found:
                break
        if not found:
            break
        L, U = found
        for i in range(L - 1, U):
            keep[i] = False
        start = U + 1
    return "".join(ch for ch, k in zip(word, keep) if k)


def doubling_word(levels: int, beam: int = 256, seed: int = 0) -> tuple[str, list[str]]:
    """Concatenation xi_1 xi_2 ... of the best found blocks of length 2^k.

    Along the result, every prefix containing xi_k has orbit at least
    #O(xi_k) while being at most 4 |xi_k| long, so orbit growth transfers
    from the blocks to the whole word.
    """
    blocks = [grigorchuk.search_word(2 ** k, beam, seed) for k in range(1, levels + 1)]
    return "".join(blocks), blocks


def fitted_lower_constant(ball: np.ndarray, n_min: int = 8) -> float:
    """Largest c with #B(m) >= 2**(c sqrt(m)/log m) on every m >= n_min."""
    cs = []
    for m in range(n_min, len(ball)):
        if ball[m] > 1:
            cs.append(math.log2(float(ball[m])) * math.log(m) / math.sqrt(m))
    if not cs:
        raise ValueError("ball too small to fit")
    return min(cs)


# -- closed forms on spherically symmetric trees -------------------------------

def min_cut_symmetric(log2_levels, lam: float, N: int) -> tuple[float, int]:
    """By symmetry the min-cut is a full level: min over 1 <= n <= N of
    #E_n * exp(-n**lam), as (log value, level), the shallowest on ties."""
    n = np.arange(1, N + 1, dtype=float)
    logvals = np.asarray(log2_levels, dtype=float)[1:N + 1] * LOG2 - np.power(n, lam)
    i = int(np.argmin(logvals))
    return float(logvals[i]), i + 1


def survival_symmetric(degrees, log_p, N: int) -> float:
    """Survival to depth N, one level at a time from the frontier up:
    s = 1 - (1 - p(n) s)**d(n-1), with log_p[n - 1] = log p(n)."""
    s = 1.0
    for lp, d in zip(reversed(log_p[:N].tolist()), reversed(np.asarray(degrees[:N]).tolist())):
        s = -math.expm1(d * math.log1p(-math.exp(lp) * s))
    return s


def log_effective_conductance_symmetric(log2_levels, log_c) -> float:
    """Level shorting: same-depth vertices share a potential, so
    R = sum over n of (1/c(n)) / #E_n, with log_c[n - 1] = log c(n)."""
    log_c = np.asarray(log_c, dtype=float)
    terms = -log_c - np.asarray(log2_levels, dtype=float)[1:len(log_c) + 1] * LOG2
    hi = terms.max()
    return -(hi + math.log(np.exp(terms - hi).sum()))


def array_levels(level_log2_sizes) -> LevelReader:
    """A LevelReader of log2 level sizes given as an array, one step per
    depth, for flowcut.igr_estimate."""
    lv = np.asarray(level_log2_sizes, dtype=float)
    return LevelReader(np.arange(len(lv) + 1), lv)


def level_log2_sizes_oracle(family, N: int) -> np.ndarray:
    """log2 #E_n for n = 0..N as whole-depth arrays: the cumulative sum of
    log2(degrees), or the 3-1 tree's 2**j on the j depths into base level j."""
    if family.degrees is None:
        j = np.arange(1, base_level_at_depth(N) + 1)
        return np.concatenate(([0.0], np.repeat(j, j)[:N].astype(float)))
    return np.concatenate(([0.0], np.cumsum(np.log2(family.degrees(N)))))


def igr_estimate_oracle(level_log2_sizes, N: int, grid=tuple(np.arange(1, 20) * 0.05)):
    """flowcut.igr_estimate on whole-window arrays: the slope by one
    np.polyfit, and grid_sup by testing every grid rate."""
    lv = np.asarray(level_log2_sizes, dtype=float)
    grid = tuple(sorted(grid))
    lo = max(2, N // 8)
    ns = np.arange(lo, N + 1)
    loge = lv[lo:N + 1] * LOG2
    usable = loge > 0
    slope = 0.0
    if usable.sum() >= 2:
        slope = float(np.polyfit(np.log(ns[usable].astype(float)), np.log(loge[usable]), 1)[0])
    endpoint = float(math.log(lv[N] * LOG2) / math.log(N)) if lv[N] * LOG2 > 1.0 and N > 1 else 0.0
    grid_sup = None
    for lam in grid:
        if (loge - np.power(ns.astype(float), lam) >= 0).all():
            grid_sup = lam
    estimate = min(max(slope, grid[0]), grid[-1])
    return flowcut.IgrEstimate(slope=slope, estimate=estimate, endpoint=endpoint,
                               grid_sup=grid_sup)


# -- the stretched 3-1 tree's classes ---------------------------------------------

def three_one_lattice(n: int, M: int) -> list[int]:
    """Positions of base level n for frontier M, in closed form: 0, 1 and
    F, F + 1 with F = 2**(n+k-1) // 3**k for 1 <= k <= M - n, below 2**(n-1)."""
    if n == M:
        return [0]
    floors = [2 ** (n + k - 1) // 3 ** k for k in range(1, M - n + 1)]
    return sorted(p for p in {0, 1, *floors, *[f + 1 for f in floors]} if p < 2 ** (n - 1))


def hash_cons(t: Tree) -> np.ndarray:
    """Class id of every vertex: vertices share a class iff they have the
    same depth and the same multiset of child classes, from the leaves up."""
    ids: dict[tuple, int] = {}
    cls = np.empty(t.n_vertices, dtype=np.int64)
    for v in np.argsort(-t.depth_array(), kind="stable").tolist():
        key = (t.depth(v), *sorted(cls[t.children(v)].tolist()))
        cls[v] = ids.setdefault(key, len(ids))
    return cls


ORACLE_EXACT_BELOW = 1 << 40


def three_one_gathers_oracle(M: int):
    """classes._three_one_gathers without its thin-class column, by the
    per-floor big-integer route: for base levels n = M-1, ..., 1 the floors
    F_k = floor(2**(n+k-1) / 3**k) come from the child level's floors by one
    divmod by 3 each, F'_{k-1} = 3 F_k + t (F'_0 = 2**n).  The small
    positions -- 0, 1 and F, F + 1 for floors below EXACT_BELOW -- are
    sorted and placed by np.searchsorted; for F_k above it, k = kb..1, the
    child of F_k + e is F'_{k-1} + o with o = 3e + r - t, the child piece
    before, at or after F'_{k-1} by the sign of o."""
    floors = ()  # the child level's nonzero floors, descending
    kb, n_small, P = 0, 1, 1
    low = np.zeros(1, dtype=np.int64)  # the child's positions below 4 * EXACT_BELOW
    for n in range(M - 1, 0, -1):
        child_small, child_kb, child_low, child_P = n_small, kb, low, P
        floors, rems = zip(*map(divmod, [1 << n, *floors], repeat(3)))
        floors = floors[:bisect_right(floors, -1, key=neg)]  # drop the zeros
        kb = bisect_right(floors, -ORACLE_EXACT_BELOW, key=neg)
        small = sorted({0, 1, *floors[kb:], *[f + 1 for f in floors[kb:]]})
        del small[bisect_left(small, 1 << (n - 1)):]  # thick states s < 2**(n-1)
        near = floors[bisect_right(floors, -4 * ORACLE_EXACT_BELOW, hi=kb, key=neg):kb]
        low = np.array(small + [p for f in reversed(near) for p in (f, f + 1)], dtype=np.int64)
        n_small = len(small)
        P = n_small + 2 * kb

        x = 3 * low[:n_small] + np.arange(3)[:, None]
        idx_small = np.searchsorted(child_low, x, side="right") - 1
        if n < 62:
            idx_small[x >= 1 << n] = child_P  # a thin child
        t = np.array(rems[:kb][::-1], dtype=np.int64)
        o = 3 * np.arange(2) - t[:, None] + np.arange(3)[:, None, None]  # [r, k, e]
        at = child_small + 2 * (child_kb + 1 - np.arange(kb, 0, -1))
        idx_big = at[:, None] + np.sign(o)
        np.minimum(idx_big, child_P, out=idx_big)  # past F'_0 = 2**n: a thin child
        yield np.concatenate((idx_small, idx_big.reshape(3, -1)), axis=1)
