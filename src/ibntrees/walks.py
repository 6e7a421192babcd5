"""Random walks driven by edge conductances, deterministic or sampled.

Conductances are log arrays indexed by child vertex id, and every sum of
them stays in log space: sampled values like exp(-t**lam), t in the
hundreds of digits, underflow any linear sum.  Effective conductance is
one Tree.sweep_up on a materialized tree and a sweep of the class table
(classes.py) on a family; the psi fields and the coupled open set are
Tree.sweep_down passes.  rt_estimate's min-cuts under the weights
Psi(e)**gamma fold only depth 0, the scheduled frontiers and the depths
where the tree branches: log Psi never rises along a root path, so a
chain of single children passes its bottom vertex's cut up unchanged.

Both walkers run on one loop, _walk_batch: all trials of a batch at once,
one uniform per live walker per step.  A walker is a state in a next-state
table, ordered so that depth never decreases with the state, and a step is
a few whole-array numpy calls: depth_walk_batch walks the depth chain of a
spherically symmetric tree (state 2n is depth n, and the uniform picks one
of two table entries), simulate_walk a materialized truncation (the state
is a vertex's rank in level order, picked by one searchsorted in a CSR
table of cumulative conductances).  The walkers advance in chunks of steps
that no walker can end early: a walker at depth d needs d steps to reach
the root, so a chunk is at most the least live depth long (and no longer
than stop_depth or step_cap allow), and the stop test runs once per chunk.
The uniforms are drawn ahead into one buffer from the single (seed,
WALK_STREAM) Philox stream; since Philox continues one sequence across
calls and no walker stops inside a chunk, every walker reads the uniform
it would read from one draw per step, and the outputs are the same bit for
bit.  return_probability_symmetric is the exact counterpart of the depth
chain.  root_walks picks a walker by the source: a depth chain or a
truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import classes, rng
from .flowcut import BracketResult, DepthSchedule, rate_grid, trajectory_bracket
from .flowcut import ibn_log_weights as deterministic_conductances
from .generators import TreeFamily, check_elements, truncation
from .trees import Tree

NEG_INF = float("-inf")


def sample_conductance_logs(n: int, lam: float, seed: int) -> np.ndarray:
    """n i.i.d. draws of log C under the heavy-tailed law.

    With u uniform on (0, 1], t = u**(-1/(1-lam)) >= 1 and C = exp(-t**lam),
    so P[C < exp(-t**lam)] = t**(lam-1) exactly for all t >= 1.
    """
    if not 0 < lam < 1:
        raise ValueError("lam must be in (0, 1)")
    log_c = rng.uniforms(seed, rng.EDGE_STREAM, n)  # u, turned into log C in place
    np.log(log_c, out=log_c)
    np.negative(log_c, out=log_c)
    log_c /= 1.0 - lam  # log t
    log_c *= lam
    with np.errstate(over="ignore"):  # checked below
        np.exp(log_c, out=log_c)
    np.negative(log_c, out=log_c)
    if not np.isfinite(log_c).all():
        raise ValueError("sampled conductance exponent overflowed")
    return log_c


def sample_conductances(tree: Tree, lam: float, seed: int) -> np.ndarray:
    """I.i.d. heavy-tailed log conductances keyed by (seed, edge id)."""
    log_c = np.empty(tree.n_vertices)
    log_c[0] = np.nan
    log_c[1:] = sample_conductance_logs(tree.n_vertices - 1, lam, seed)
    return log_c


def conductance_cdf(x: np.ndarray, lam: float) -> np.ndarray:
    """Exact CDF of the sampled conductance: P[C <= x] = (-log x)**((lam-1)/lam)
    on (0, exp(-1)]."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 0) & (x <= math.exp(-1.0))
    out[inside] = np.power(-np.log(x[inside]), (lam - 1.0) / lam)
    out[x > math.exp(-1.0)] = 1.0
    return out


# -- effective conductance ---------------------------------------------------

def log_effective_conductance(tree: Tree, log_c: np.ndarray, N: int) -> float:
    """log of the effective conductance from the root to depth N, reduced in
    series and parallel in log space: C(v) is +inf on the frontier, -inf where
    a branch dies out above it, else the sum over children of
    1/(1/c(e_child) + 1/C(child))."""
    neg_log_c = -log_c
    log_C = tree.sweep_up(N, NEG_INF, np.inf, lambda log_C, ids, starts:  # branches in parallel
                          np.logaddexp.reduceat(-np.logaddexp(neg_log_c[ids], -log_C), starts))
    return float(log_C[0])


def effective_conductance(tree: Tree, log_c: np.ndarray, N: int) -> float:
    """exp of log_effective_conductance (inf above the largest double)."""
    with np.errstate(over="ignore"):
        return float(np.exp(log_effective_conductance(tree, log_c, N)))


def effective_conductance_symmetric(log2_levels: Sequence[float], lam: float, N: int) -> float:
    """effective_conductance of a spherically symmetric truncation under the
    conductances exp(-|e|**lam), from its level sizes."""
    return math.exp(classes.log_conductance(classes.from_log2_levels(log2_levels, N), [
        -np.power(np.arange(1, N + 1, dtype=float), lam)])[0, 0])


# -- walkers -----------------------------------------------------------------

_BLOCK = 1 << 16  # doubles in the walk's draw buffer, or trials if more (512 KB)
_FIRST_FILL = 1 << 13  # doubles its first refill fills, or trials if more


def _walk_batch(move, depth_of: np.ndarray, first: int, trials: int, step_cap: int,
                seed: int, stop_depth: int | None):
    """The one walk loop: every trial at once, each live walker moving by
    state = move(state, u) on one uniform per step, at depth depth_of[state],
    which must be nondecreasing in the state.  Walkers start in state
    `first`, at depth start = depth_of[first] after `start` steps, and stop
    at the root, on first reaching stop_depth if set, or at step_cap steps.

    The walkers advance in chunks of K steps in which no walker can stop
    before the last: a walker at depth d needs d steps to reach the root
    and one at depth d' needs stop_depth - d' to reach stop_depth, so K is
    at most the least live depth, stop_depth less the greatest, and the
    steps left.  A step is move on one row of a (K, m) view of the draw
    buffer, m the live walkers, and the running maximum, kept on the state
    (the deepest state is the deepest depth); the stop test and the
    compaction of the live arrays run once per chunk.  Between tests the
    depth bounds move by K per chunk, so a chunk cut short by another bound
    needs no min() or max() reduction.

    The uniforms come from the one (seed, WALK_STREAM) Philox stream into
    one buffer of max(_BLOCK, trials) doubles, refilled in place (the
    unread tail moved to the front, the rest drawn) when a chunk's K * m do
    not fit, and K * m never exceeds its filled part.  That part grows as
    the walk reads on, from max(_FIRST_FILL, trials) doubles, doubling at
    each refill up to the whole buffer, so a short walk touches few of the
    buffer's pages.  A step takes the next m,
    one per live walker in trial order.  Philox random(a) then random(b)
    draws what random(a + b) draws, and random(out=view) what
    random(len(view)) would, so a walker reads the same uniform as if every
    step drew its own m.
    """
    if step_cap < 1 or trials < 1:
        raise ValueError("need step_cap >= 1 and trials >= 1")
    check_elements(trials, "the walk batch")
    start = int(depth_of[first])
    if stop_depth is not None and stop_depth <= start:
        step_cap = start  # the forced first step already stops every walk
    # a walk is never deeper than its step count, so unset it is out of reach
    stop = step_cap + 1 if stop_depth is None else stop_depth
    gen = rng.stream_rng(seed, rng.WALK_STREAM)
    idx = np.arange(trials)
    state = np.full(trials, first, dtype=np.int64)
    top = state.copy()  # deepest state so far, per live walker
    returned = np.zeros(trials, dtype=bool)
    final_steps = np.full(trials, step_cap, dtype=np.int64)
    maxd = np.empty(trials, dtype=np.int64)
    u = np.empty(max(_BLOCK, trials))  # the draw buffer, filled to end and read from u[at:end]
    at = end = 0
    # lo <= live depths <= hi, but a walk from the root leaves it on its first step
    m, step, lo, hi = trials, start, max(start, 1), start
    while step < step_cap and m > 0:
        k = min(lo, stop - hi, step_cap - step)
        if k * m > end - at:
            rest = end - at
            u[:rest] = u[at:end]
            end = min(max(2 * end, _FIRST_FILL, trials), len(u))  # doubling, as the walk reads on
            gen.random(out=u[rest:end])
            at = 0
            k = min(k, end // m)
        for row in u[at:at + k * m].reshape(k, m):
            state = move(state, row)
            np.maximum(top, state, out=top)
        at += k * m
        step += k
        lo, hi = lo - k, hi + k
        if lo == 0 or hi >= stop:  # a walker may have stopped: take the exact bounds
            lo = int(depth_of[state.min()])
            if stop_depth is not None:
                hi = int(depth_of[state.max()])
        if lo > 0 and hi < stop:
            continue
        depth = depth_of[state]
        done = (depth == 0) | (depth >= stop)
        gone = idx[done]
        returned[gone] = depth[done] == 0
        final_steps[gone] = step
        maxd[gone] = depth_of[top[done]]
        live = ~done
        idx, state, top = idx[live], state[live], top[live]
        m = len(idx)
        lo, hi = max(lo, 1), min(hi, stop - 1)
    maxd[idx] = depth_of[top]
    return returned, final_steps, maxd


def simulate_walk(tree: Tree, log_c: np.ndarray, N: int, trials: int, step_cap: int,
                  seed: int, stop_depth: int | None = None):
    """Conductance-weighted walks from the root on the depth-N truncation,
    all trials in one batch; (returned, steps, max_depth) arrays.

    A step moves to a neighbor with probability proportional to the edge's
    conductance; depth-N vertices reflect.  Row v of a CSR table holds v's
    neighbors (parent, then children) with cumulative weights scaled by the
    row's largest, so a step is one searchsorted for all live walkers.  The
    walker's state is its vertex's rank in level order, so that depth is
    nondecreasing in the state, as _walk_batch needs.
    """
    tree.check_depth(N)
    d, par = tree.depth_array(), tree.parent_array()
    kids = np.arange(1, tree.n_vertices)
    order = np.argsort(np.concatenate([kids, par[1:]]), kind="stable")
    nbr = np.concatenate([par[1:], kids])[order]
    edge = np.concatenate([kids, kids])[order]  # each entry's edge, named by its child
    w = np.where(d[edge] <= N, log_c[edge], NEG_INF)  # no edge below depth N
    counts = tree.n_children_array() + (np.arange(tree.n_vertices) > 0)  # + the parent
    starts = np.cumsum(counts) - counts
    top = np.maximum.reduceat(w, starts)
    top[np.isneginf(top)] = 0.0  # rows below depth N: no walk enters them
    cum = np.cumsum(np.exp(w - np.repeat(top, counts)))
    base = np.concatenate([[0.0], cum])[starts]
    last = np.searchsorted(cum, cum[starts + counts - 1])  # last positive weight
    span = cum[last] - base
    level = np.argsort(d, kind="stable")  # the vertex of each state
    rank = np.empty_like(level)
    rank[level] = np.arange(tree.n_vertices)
    nbr, base, span, last = rank[nbr], base[level], span[level], last[level]

    def move(pos, u):
        return nbr[np.minimum(np.searchsorted(cum, base[pos] + u * span[pos], side="right"),
                              last[pos])]

    return _walk_batch(move, d[level], 0, trials, step_cap, seed, stop_depth)


def _p_up(degrees: np.ndarray, lam: float, N: int) -> np.ndarray:
    """P(up at depth n) of the depth chain, indexed by depth n = 0..N: c(n) /
    (c(n) + d(n) c(n+1)); 0 at the root and 1 at depth N, which reflects."""
    if len(degrees) < N:
        raise ValueError(f"need degrees for depths 0..{N - 1}")
    n = np.arange(1, N + 1, dtype=float)
    # d(n) at index n - 1; the frontier reflects
    d = np.append(np.asarray(degrees[1:N], dtype=float), 0.0)
    # both powers overflow (inf - inf = nan) only where n**lam > 1e308,
    # which for lam <= 6 needs n > 1e51; above 6, p_up at depth 1 is
    # exactly 1.0, so no walk gets past depth 1 to read a nan
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.power(n + 1, lam) - np.power(n, lam)
    return np.concatenate([[0.0], 1.0 / (1.0 + d * np.exp(-gap))])


def depth_walk_batch(degrees: np.ndarray, lam: float, N: int,
                     trials: int, step_cap: int, seed: int,
                     stop_depth: int | None = None):
    """simulate_walk on the depth-N truncation of a spherically symmetric
    tree, given its degree array.  The walk's depth is itself a Markov chain
    (children are exchangeable), so the batch walks the chain from depth 1,
    after the forced first step.

    State 2n stands for depth n, and the next state is nxt[s + (u < p2[s])]:
    nxt[2n] = 2n + 2 (down), nxt[2n + 1] = 2n - 2 (up) and p2[2n] is
    P(up at depth n), so a step is two table reads and no np.where.
    """
    p2 = np.repeat(_p_up(degrees, lam, N), 2)
    depth_of = np.arange(2 * N + 2) // 2
    # clipped at the root's up and depth N's down entry, which no walker reads
    nxt = np.clip(2 * depth_of + np.tile([2, -2], N + 1), 0, 2 * N)

    def move(s, u):
        return nxt[s + (u < p2[s])]

    return _walk_batch(move, depth_of, 2, trials, step_cap, seed, stop_depth)


def return_probability_symmetric(degrees: np.ndarray, lam: float, N: int, T: int) -> float:
    """Exact chance that depth_walk_batch's walk is back at the root by step
    T: the (1, 0) entry of P**(T - 1), where P is the depth chain's
    transition matrix with the root absorbing, by repeated squaring."""
    if T < 1:
        raise ValueError("need T >= 1")
    check_elements((N + 1) ** 2, "the transition matrix")
    p_up = _p_up(degrees, lam, N)
    P = np.zeros((N + 1, N + 1))
    P[0, 0] = 1.0
    n = np.arange(1, N + 1)
    P[n, n - 1] = p_up[1:]
    P[n[:-1], n[:-1] + 1] = 1.0 - p_up[1:-1]
    return float(np.linalg.matrix_power(P, T - 1)[1, 0])


def root_walks(source: TreeFamily | Tree, lam: float, N: int, trials: int,
               step_cap: int, seed: int):
    """Walks from the root of the depth-N truncation under the conductances
    exp(-|e|**lam): (returned, steps, max_depth) arrays, one entry per trial.

    A family with a degree array walks its depth chain (depth_walk_batch),
    any other source its truncation (simulate_walk).
    """
    if isinstance(source, TreeFamily) and source.degrees is not None:
        return depth_walk_batch(source.degrees(N), lam, N, trials, step_cap, seed)
    tree = truncation(source, N)
    return simulate_walk(tree, deterministic_conductances(tree, lam), N, trials, step_cap, seed)


# -- psi fields and the recurrence/transience functional ---------------------

@dataclass(frozen=True)
class PsiField:
    """Per-edge ruin probabilities of the walk restricted to a root path.

    psi(e) is the probability, within [root, e+], of stepping from e- to
    e+ before the root; Psi(e) is the product of psi along the path, the
    probability of reaching e+ before returning to the root.
    """

    tree: Tree
    log_S: np.ndarray    # log sum of C_g^{-1} over g <= e
    log_psi: np.ndarray  # 0.0 at depth 1
    log_Psi: np.ndarray
    N: int


def psi_field(tree: Tree, log_c: np.ndarray, N: int) -> PsiField:
    log_S = np.full(tree.n_vertices, np.nan)
    log_S[0] = NEG_INF  # the empty sum
    tree.sweep_down(np.logaddexp, log_S, -log_c, N)
    log_S[0] = np.nan
    log_psi = np.full(tree.n_vertices, np.nan)
    log_psi[1:] = log_S[tree.parent_array()[1:]] - log_S[1:]
    log_psi[tree.level(1)] = 0.0
    log_Psi = np.full(tree.n_vertices, np.nan)
    log_Psi[0] = 0.0
    tree.sweep_down(np.add, log_Psi, log_psi, N)
    log_Psi[0] = np.nan
    return PsiField(tree, log_S, log_psi, log_Psi, N)


def _cut_steps(tree: Tree, depths: Sequence[int]) -> list[tuple]:
    """rt_estimate's fold steps for the depths, deepest first: one (a, low,
    anc) per pair a < b of consecutive kept depths, which are 0, the depths
    and every depth where some vertex has two or more children.  No vertex
    at depths a + 1..b - 1 has two children, so each depth-b vertex has its
    own ancestor at depth a + 1: low is level(b) and anc those ancestors,
    or both are None when b = a + 1.  Depth k branches when level k + 1
    outnumbers the depth-k vertices that have children, so only the kept
    levels' siblings are ever grouped."""
    N, par = depths[-1], tree.parent_array()
    has_child = np.zeros(tree.n_vertices, dtype=bool)
    has_child[par[1:]] = True
    kept = [k for k in range(1, N) if k in depths
            or np.count_nonzero(has_child[tree.level(k)]) < len(tree.level(k + 1))]
    steps = []
    for a, b in zip([0, *kept], [*kept, N]):
        low = anc = None
        if b > a + 1:
            low = anc = tree.level(b)
            for _ in range(b - a - 1):
                anc = par[anc]
        steps.append((a, low, anc))
    return steps[::-1]


def _log_cut(tree: Tree, steps, g: float, log_Psi: np.ndarray, N: int, cut: np.ndarray) -> float:
    """The log min-cut of the depth-N truncation under the weights g * log
    Psi, folded along _cut_steps' steps above N, in the scratch array cut."""
    cut[tree.level(N)] = np.inf  # a frontier vertex cuts its own edge
    for a, low, anc in steps:
        if a >= N:
            continue  # below this truncation
        if low is not None:  # a chain's bottom m, written at its top
            m = np.minimum(g * log_Psi[low], cut[low])
            cut[tree.level(a + 1)] = NEG_INF  # chains that die out cost nothing
            cut[anc] = m
        ids, starts, parents = tree.siblings(a + 1)
        m = np.minimum(g * log_Psi[ids], cut[ids])
        cut[tree.level(a)] = NEG_INF  # as do childless vertices
        cut[parents] = np.logaddexp.reduceat(m, starts)
    return float(cut[0])


def rt_estimate(psi: PsiField, gamma_grid: Sequence[float],
                schedule: DepthSchedule) -> BracketResult:
    """Bracket the recurrence/transience exponent: classify, per gamma, the
    min-cut trajectory on psi.tree under weights w = gamma * log Psi(e).  A
    weight whose log overflows is 0 (log -inf), as in ibn_log_weights.

    Each (gamma, depth N) cut is flowcut.min_cut's recursion, m(v) =
    min(w(v), sum over children m(c)), on the kept depths only (_cut_steps).
    log Psi never rises along a root path (psi_field: log S never falls, as
    np.logaddexp never returns less than its larger argument), so for
    gamma > 0 neither does w, and a vertex with one child c has m(v) =
    min(w(v), m(c)) = m(c) exactly, as m(c) <= w(c) <= w(v).  So a
    chain of single children passes its bottom vertex's m up unchanged: the
    sweep writes it at the chain's top and folds that level's siblings as
    min_cut does, the same terms in the same order, and every value equals
    min_cut's.  A PsiField whose log Psi rises somewhere gets no such
    guarantee.
    """
    gamma_grid = rate_grid(gamma_grid, upper=math.inf)
    tree, depths = psi.tree, schedule.depths
    if psi.N < depths[-1]:
        raise ValueError("psi field shallower than the schedule")
    tree.check_depth(depths[-1])
    steps = _cut_steps(tree, depths)
    cut = np.empty(tree.n_vertices)  # the sweeps' scratch: each vertex's children's log cut
    with np.errstate(over="ignore"):  # log Psi <= 0, so an overflow is -inf
        trajectories = {g: tuple(_log_cut(tree, steps, g, psi.log_Psi, N, cut) for N in depths)
                        for g in gamma_grid}
    return trajectory_bracket(gamma_grid, schedule, trajectories)


# -- percolation coupled to the conductance field ----------------------------

def coupled_percolation(tree: Tree, log_c: np.ndarray, lam: float, N: int):
    """Open-edge set driven by the conductance field.

    An edge e with |e| > 1 is open iff every strict-depth ancestor g
    (2 <= |g| <= |e|) satisfies C_g^{-1} <= exp(|g|**lam); depth-1 edges are
    open outright and impose no constraint downstream.  Returns the open
    mask together with psi_C(e) = P[C^{-1} <= exp(|e|**lam)] from the exact
    sampling law (1 at depth 1).
    """
    d = tree.depth_array()
    ok = np.zeros(tree.n_vertices, dtype=bool)
    sel = d >= 2
    ok[sel] = -log_c[sel] <= np.power(d[sel].astype(float), lam)
    open_mask = np.zeros(tree.n_vertices, dtype=bool)
    open_mask[tree.level(1)] = True
    tree.sweep_down(np.logical_and, open_mask, ok, N, start=2)
    psi_c = np.ones(tree.n_vertices)
    psi_c[sel] = 1.0 - np.power(d[sel].astype(float), lam - 1.0)
    psi_c[0] = np.nan
    return open_mask, psi_c
