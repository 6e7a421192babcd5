"""Random walks driven by edge conductances, deterministic or sampled.

Conductances are kept in log space throughout: the sampled law produces
values like exp(-t**lam) with t in the hundreds of digits, and the psi
fields need sums of their reciprocals, which are accumulated with
logaddexp.  On a materialized tree, effective conductance is a
Tree.sweep_up, the psi fields and the coupled open set Tree.sweep_down
passes.  Monte Carlo trials are independent substreams keyed by (seed,
trial index), so batches are reproducible regardless of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import rng
from .flowcut import BracketResult, DepthSchedule, min_cut
from .generators import LOG2, TreeFamily
from .trees import Tree

NEG_INF = float("-inf")


@dataclass(frozen=True)
class ConductanceField:
    """Per-edge conductances on a tree, stored as log values."""

    tree: Tree
    log_c: np.ndarray  # indexed by child vertex id; slot 0 unused
    lam: float
    seed: int | None = None  # None for deterministic fields


def deterministic_conductances(tree: Tree, lam: float) -> ConductanceField:
    """c(e) = exp(-|e|**lam)."""
    d = tree.depth_array().astype(float)
    log_c = np.empty(tree.n_vertices)
    log_c[0] = np.nan
    log_c[1:] = -np.power(d[1:], lam)
    return ConductanceField(tree, log_c, lam, None)


def sample_conductance_logs(n: int, lam: float, seed: int) -> np.ndarray:
    """n i.i.d. draws of log C under the heavy-tailed law.

    With u uniform on (0, 1], t = u**(-1/(1-lam)) >= 1 and C = exp(-t**lam),
    so P[C < exp(-t**lam)] = t**(lam-1) exactly for all t >= 1.
    """
    if not 0 < lam < 1:
        raise ValueError("lam must be in (0, 1)")
    u = rng.uniforms(seed, rng.EDGE_STREAM, n)
    log_t = -np.log(u) / (1.0 - lam)
    log_c = -np.exp(lam * log_t)
    if not np.isfinite(log_c).all():
        raise ValueError("sampled conductance exponent overflowed")
    return log_c


def sample_conductances(tree: Tree, lam: float, seed: int) -> ConductanceField:
    """I.i.d. heavy-tailed conductances keyed by (seed, edge id)."""
    log_c = np.empty(tree.n_vertices)
    log_c[0] = np.nan
    log_c[1:] = sample_conductance_logs(tree.n_vertices - 1, lam, seed)
    return ConductanceField(tree, log_c, lam, seed)


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

def effective_conductance(tree: Tree, field: ConductanceField, N: int) -> float:
    """Exact series/parallel reduction of the depth-N truncation.

    R(v) = 0 on the frontier, else R(v) = 1 / sum over children of
    1/(1/c(e_child) + R(child)); branches that die out early conduct
    nothing.  Returns 1/R(root).
    """
    if N < 1 or tree.height() < N:
        raise ValueError(f"tree must reach depth N={N}")
    d = tree.depth_array()
    c = np.exp(field.log_c)
    active = (d >= 1) & (d <= N)
    if (c[active] <= 0.0).any():
        raise ValueError("conductance underflowed to zero; use a symmetric route")
    R = np.full(tree.n_vertices, np.inf)  # childless above the frontier: no current
    R[tree.level(N)] = 0.0
    with np.errstate(divide="ignore"):  # children that all die out: R = 1/0
        tree.sweep_up(R, N, lambda R, ids, starts:  # conductance into each child, summed
                      1.0 / np.add.reduceat(1.0 / (1.0 / c[ids] + R), starts))
    return float(1.0 / R[0]) if R[0] > 0 else float("inf")


def log_effective_conductance_symmetric(log2_levels: Sequence[float],
                                        log_c_at: Callable[[np.ndarray], np.ndarray],
                                        N: int) -> float:
    """log of the effective conductance of a spherically symmetric truncation.

    Same-depth vertices share a potential, so levels short together and
    R = sum over n of (1/c(n)) / #E_n.
    """
    lv = np.asarray(log2_levels, dtype=float)
    n = np.arange(1, N + 1, dtype=float)
    terms = -log_c_at(n) - lv[1:N + 1] * LOG2  # log of each level resistance
    hi = terms.max()
    log_R = hi + math.log(np.exp(terms - hi).sum())
    return -log_R


def effective_conductance_symmetric(family: TreeFamily, lam: float, N: int) -> float:
    if family.degree is None:
        raise ValueError("family is not spherically symmetric")
    logec = log_effective_conductance_symmetric(
        family.level_log2_sizes(N), lambda n: -np.power(n, lam), N)
    return math.exp(logec)


# -- walkers -----------------------------------------------------------------

@dataclass(frozen=True)
class WalkResult:
    returned: bool
    steps: int
    max_depth: int


def simulate_walk(tree: Tree, field: ConductanceField, step_cap: int,
                  seed: int, trial: int = 0) -> WalkResult:
    """One conductance-weighted walk from the root.

    At each vertex the next neighbor is drawn with probability proportional
    to the incident edge conductances; the walk stops at the first return
    to the root or at step_cap.  Frontier vertices (leaves) reflect.
    """
    if step_cap < 1:
        raise ValueError("step_cap must be >= 1")
    gen = rng.stream_rng(seed, rng.WALK_STREAM, trial)
    log_c = field.log_c
    pos, steps, maxd = 0, 0, 0
    while steps < step_cap:
        kids = tree.children(pos)
        if pos == 0:
            weights = [log_c[c] for c in kids]
            nbrs = list(kids)
        else:
            weights = [log_c[pos]] + [log_c[c] for c in kids]
            nbrs = [tree.parent(pos)] + list(kids)
        w = np.asarray(weights)
        w = np.exp(w - w.max())
        probs = w / w.sum()
        pos = nbrs[int(gen.choice(len(nbrs), p=probs))]
        steps += 1
        maxd = max(maxd, tree.depth(pos))
        if pos == 0:
            return WalkResult(True, steps, maxd)
    return WalkResult(False, steps, maxd)


def depth_walk_batch(degree: Callable[[int], int], lam: float, N: int,
                     trials: int, step_cap: int, seed: int,
                     stop_depth: int | None = None):
    """Vectorized root-return experiment on a spherically symmetric tree.

    The depth of the walk is itself a Markov chain (children are
    exchangeable), with P(up at depth n) = c(n) / (c(n) + d(n) c(n+1)), so
    the batch walks the chain directly.  Returns (returned, steps,
    max_depth) arrays; if stop_depth is set, a walk also halts when it
    first reaches that depth.
    """
    if step_cap < 1 or trials < 1:
        raise ValueError("need step_cap >= 1 and trials >= 1")
    n = np.arange(1, N + 1, dtype=float)
    d = np.array([degree(k) for k in range(1, N + 1)], dtype=float)
    d[-1] = 0.0  # frontier reflects
    gap = np.power(n + 1, lam) - np.power(n, lam)
    p_up = np.concatenate([[0.0], 1.0 / (1.0 + d * np.exp(-gap))])  # index by depth

    gen = rng.stream_rng(seed, rng.WALK_STREAM)
    pos = np.ones(trials, dtype=np.int64)  # after the forced first step
    maxd = np.ones(trials, dtype=np.int64)
    returned = np.zeros(trials, dtype=bool)
    final_steps = np.full(trials, step_cap, dtype=np.int64)
    idx = np.arange(trials)

    step = 1
    while step < step_cap and len(idx) > 0:
        u = gen.random(len(idx))
        up = u < p_up[pos]
        pos = np.where(up, pos - 1, pos + 1)
        step += 1
        maxd[idx] = np.maximum(maxd[idx], pos)
        done = pos == 0
        if stop_depth is not None:
            done = done | (pos >= stop_depth)
        if done.any():
            hit = idx[done]
            returned[hit] = pos[done] == 0
            final_steps[hit] = step
            keep = ~done
            idx, pos = idx[keep], pos[keep]
    final_steps[idx] = step_cap
    return returned, final_steps, maxd


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


def psi_field(tree: Tree, field: ConductanceField, N: int) -> PsiField:
    if N < 1 or tree.height() < N:
        raise ValueError(f"tree must reach depth N={N}")
    log_S = np.full(tree.n_vertices, np.nan)
    log_S[0] = NEG_INF  # the empty sum
    tree.sweep_down(np.logaddexp, log_S, -field.log_c, N)
    log_S[0] = np.nan
    log_psi = np.full(tree.n_vertices, np.nan)
    log_psi[1:] = log_S[tree.parent_array()[1:]] - log_S[1:]
    log_psi[tree.level(1)] = 0.0
    log_Psi = np.full(tree.n_vertices, np.nan)
    log_Psi[0] = 0.0
    tree.sweep_down(np.add, log_Psi, log_psi, N)
    log_Psi[0] = np.nan
    return PsiField(tree, log_S, log_psi, log_Psi, N)


def rt_estimate(tree: Tree, psi: PsiField, gamma_grid: Sequence[float],
                schedule: DepthSchedule) -> BracketResult:
    """Bracket the recurrence/transience exponent: classify, per gamma, the
    min-cut trajectory under weights Psi(e)**gamma."""
    gamma_grid = tuple(sorted(gamma_grid))
    if any(g <= 0 for g in gamma_grid):
        raise ValueError("gamma grid must be positive")
    if psi.N < schedule.depths[-1]:
        raise ValueError("psi field shallower than the schedule")
    trajectories = {}
    for g in gamma_grid:
        w = g * psi.log_Psi
        w[0] = np.nan
        vals = [min_cut(tree, w, N, want_cut=False).log_value for N in schedule.depths]
        trajectories[g] = tuple(vals)
    return BracketResult(gamma_grid, schedule, trajectories)


# -- percolation coupled to the conductance field ----------------------------

def coupled_percolation(tree: Tree, field: ConductanceField, lam: float, N: int):
    """Open-edge set driven by the conductance field.

    An edge e with |e| > 1 is open iff every strict-depth ancestor g
    (2 <= |g| <= |e|) satisfies C_g^{-1} <= exp(|g|**lam); depth-1 edges are
    open outright and impose no constraint downstream.  Returns the open
    mask together with psi_C(e) = P[C^{-1} <= exp(|e|**lam)] from the exact
    sampling law (1 at depth 1).
    """
    d = tree.depth_array()
    if N < 1 or tree.height() < N:
        raise ValueError(f"tree must reach depth N={N}")
    ok = np.zeros(tree.n_vertices, dtype=bool)
    sel = d >= 2
    ok[sel] = -field.log_c[sel] <= np.power(d[sel].astype(float), lam)
    open_mask = np.zeros(tree.n_vertices, dtype=bool)
    open_mask[tree.level(1)] = True
    tree.sweep_down(np.logical_and, open_mask, ok, N, start=2)
    psi_c = np.ones(tree.n_vertices)
    psi_c[sel] = 1.0 - np.power(d[sel].astype(float), lam - 1.0)
    psi_c[0] = np.nan
    return open_mask, psi_c
