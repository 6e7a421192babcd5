"""Independent edge percolation with depth-dependent opening probabilities.

p(e) = exp(-|e|**(-1+lam)) increases with depth, so deep truncations
survive through branching but shallow thin stretches kill clusters; the
survival recursion is evaluated with log1p/expm1 to keep tiny
probabilities meaningful.  Spherically symmetric trees collapse the
recursion to one value per level, which is how deep schedules are run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import rng, walks
from .flowcut import BracketResult, DepthSchedule
from .generators import TreeFamily, route, truncation
from .trees import Tree

LOG_FLOOR = -744.0  # log of the smallest positive double, used as a clamp


@dataclass(frozen=True)
class PercolationLaw:
    """Open probability p(e) = exp(-|e|**(-1+lam)); lam None means p = 1."""

    lam: float | None

    def __post_init__(self):
        if self.lam is not None and not 0 < self.lam < 1:
            raise ValueError("lam must be in (0, 1)")

    @staticmethod
    def always_open() -> "PercolationLaw":
        return PercolationLaw(None)

    def p(self, depth) -> np.ndarray:
        d = np.asarray(depth, dtype=float)
        if self.lam is None:
            return np.ones_like(d)
        return np.exp(-np.power(d, self.lam - 1.0))

    def log_p(self, depth) -> np.ndarray:
        d = np.asarray(depth, dtype=float)
        if self.lam is None:
            return np.zeros_like(d)
        return -np.power(d, self.lam - 1.0)


def exact_survival(tree: Tree, law: PercolationLaw, N: int) -> float:
    """P[root connected to depth N] by the backward recursion
    s(v) = 1 - prod over children (1 - p(e_child) s(child)), s = 1 on the
    frontier.  Branches that die out before depth N contribute nothing.
    """
    if N < 1 or tree.height() < N:
        raise ValueError(f"tree must reach depth N={N}")
    d = tree.depth_array()
    s = np.zeros(tree.n_vertices)
    s[tree.level(N)] = 1.0
    for k in range(N, 0, -1):
        ids, starts, parents = tree.siblings(k)
        ps = law.p(d[ids]) * s[ids]
        with np.errstate(divide="ignore"):
            log_miss = np.log1p(-np.minimum(ps, 1.0))
        # + 0.0 gives an all-(-0.0) segment the sum 0.0, as accumulating from 0.0 does
        s[parents] = -np.expm1(np.add.reduceat(log_miss, starts) + 0.0)
    return float(s[0])


def survival_symmetric(degree: Callable[[int], int], law: PercolationLaw, N: int) -> float:
    """exact_survival on a spherically symmetric tree from its degree rule."""
    if N < 1:
        raise ValueError("N must be >= 1")
    p_at = law.p(np.arange(1, N + 1)).tolist()  # p_at[n - 1] opens edges at depth n
    s = 1.0
    for n in range(N, 0, -1):
        p = p_at[n - 1]
        d = degree(n - 1)
        ps = min(p * s, 1.0)
        s = -math.expm1(d * math.log1p(-ps)) if ps < 1.0 else 1.0
    return s


def mc_survival(tree: Tree, law: PercolationLaw, N: int, trials: int,
                seed: int, chunk: int = 256) -> tuple[float, float]:
    """Unbiased Monte Carlo estimate of {root <-> depth N} with its
    standard error; trials are chunked into independent substreams."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    d = tree.depth_array()
    p_edge = np.ones(tree.n_vertices)
    p_edge[1:] = law.p(d[1:].astype(float))
    frontier = tree.level(N)
    if len(frontier) == 0:
        raise ValueError(f"tree must reach depth N={N}")
    par = tree.parent_array()
    hits = 0
    done = 0
    index = 0
    while done < trials:
        m = min(chunk, trials - done)
        gen = rng.stream_rng(seed, rng.PERC_STREAM, index)
        reach = np.ones((m, tree.n_vertices), dtype=bool)
        for k in range(1, N + 1):
            lv = tree.level(k)
            u = gen.random((m, len(lv)))
            reach[:, lv] = reach[:, par[lv]] & (u < p_edge[lv])
        hits += int(reach[:, frontier].any(axis=1).sum())
        done += m
        index += 1
    est = hits / trials
    stderr = math.sqrt(max(est * (1.0 - est), 1e-12) / trials)
    return est, stderr


def theta_estimate(source: TreeFamily | Tree, schedule: DepthSchedule,
                   grid: Sequence[float]) -> BracketResult:
    """Bracket the percolation threshold by classifying survival
    trajectories over the schedule (supercritical side = 'below').

    Symmetric families use survival_symmetric; every other source is swept
    on each truncation, built once per scheduled depth.
    """
    grid = tuple(sorted(grid))
    if any(not 0 < g < 1 for g in grid):
        raise ValueError("grid must lie inside (0, 1)")
    survival: dict[float, list[float]] = {lam: [] for lam in grid}
    symmetric = route(source) == "symmetric"
    for N in schedule.depths:
        tree = None if symmetric else truncation(source, N)
        for lam, column in survival.items():
            law = PercolationLaw(lam)
            column.append(survival_symmetric(source.degree, law, N) if symmetric
                          else exact_survival(tree, law, N))
    return theta_from_survival(schedule, survival)


def theta_from_survival(schedule: DepthSchedule,
                        survival: dict[float, Sequence[float]]) -> BracketResult:
    """The theta bracket from survival probabilities, one per scheduled
    depth for each grid value; zeros are clamped to LOG_FLOOR."""
    trajectories = {lam: tuple(math.log(s) if s > 0.0 else LOG_FLOOR for s in column)
                    for lam, column in survival.items()}
    return BracketResult(tuple(sorted(survival)), schedule, trajectories)


def percolation_conductances(tree: Tree, law: PercolationLaw, N: int) -> walks.ConductanceField:
    """The comparison network c(e(x)) = P[root <-> x] / (1 - p(e(x)))."""
    d = tree.depth_array()
    par = tree.parent_array()
    logp = np.zeros(tree.n_vertices)
    logp[1:] = law.log_p(d[1:].astype(float))
    log_reach = np.full(tree.n_vertices, np.nan)
    log_c = np.full(tree.n_vertices, np.nan)
    for k in range(1, N + 1):
        lv = tree.level(k)
        prev = np.zeros(len(lv)) if k == 1 else log_reach[par[lv]]
        log_reach[lv] = prev + logp[lv]
        with np.errstate(divide="ignore"):
            denom = np.log(-np.expm1(logp[lv]))
        log_c[lv] = log_reach[lv] - denom
    return walks.ConductanceField(tree, log_c, law.lam if law.lam is not None else 1.0, None)


def conductance_bound(tree: Tree, law: PercolationLaw, N: int) -> float:
    """Lower bound C/(1+C) <= P[root <-> depth N] from the comparison
    network's effective conductance."""
    field = percolation_conductances(tree, law, N)
    C = walks.effective_conductance(tree, field, N)
    return C / (1.0 + C) if math.isfinite(C) else 1.0


def conductance_bound_symmetric(family: TreeFamily, lam: float, N: int) -> float:
    """conductance_bound via the level-shorting identity (log-space safe)."""
    if family.degree is None:
        raise ValueError("family is not spherically symmetric")
    law = PercolationLaw(lam)

    def log_c_at(n: np.ndarray) -> np.ndarray:
        logp = law.log_p(n)
        with np.errstate(divide="ignore"):
            return np.cumsum(logp) - np.log(-np.expm1(logp))

    log_R = -walks.log_effective_conductance_symmetric(family.level_log2_sizes(N), log_c_at, N)
    # C/(1+C) = 1/(1+R)
    return float(math.exp(-np.logaddexp(0.0, log_R)))
