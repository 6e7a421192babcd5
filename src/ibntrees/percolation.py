"""Independent edge percolation with depth-dependent opening probabilities.

p(e) = exp(-|e|**(-1+lam)) increases with depth, so deep truncations
survive through branching but shallow thin stretches kill clusters; the
survival recursion is evaluated with log1p/expm1 to keep tiny
probabilities meaningful.  The conductance bound's comparison network is
per-depth (one log conductance per depth, from one cumsum) and is reduced
in log space.  survival_table evaluates every source's survival and bound
by one sweep each of its class table (classes.of_source: a family's, or
an explicit Tree's hash-consed one) for every (rate, depth);
theta_estimate reads its survival.  exact_survival and conductance_bound
sweep a Tree per vertex, the class route's test oracles.  Monte Carlo is
one Tree.sweep_down per chunk of trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import classes, rng, walks
from .flowcut import BracketResult, DepthSchedule, rate_grid, trajectory_bracket
from .generators import TreeFamily, truncation
from .trees import Tree

LOG_FLOOR = -744.0  # log of the smallest positive double, used as a clamp

MC_CHUNK = 256  # Monte Carlo trials per substream


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
        return np.exp(self.log_p(depth))

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
    d = tree.depth_array()
    # neg_p[n] = -p(n), no edge at 0; sized by the tree, which sweep_up checks against N
    neg_p = [0.0, *(-law.p(np.arange(1, min(N, tree.height()) + 1))).tolist()]

    def fold(s, ids, starts):  # one open probability per level: p <= 1 and s <= 1
        log_miss = np.log1p(s * neg_p[d[ids[0]]])
        return 0.0 - np.expm1(np.add.reduceat(log_miss, starts))  # 0.0, never -0.0

    with np.errstate(divide="ignore"):  # an always-open edge: log1p(-1) = -inf
        return float(tree.sweep_up(N, 0.0, 1.0, fold)[0])


def survival_symmetric(degrees: np.ndarray, law: PercolationLaw, N: int) -> float:
    """exact_survival on a spherically symmetric tree from its degree array."""
    if len(degrees) < N:
        raise ValueError(f"need degrees for depths 0..{N - 1}, got {len(degrees)}")
    degrees = np.asarray(degrees[:N], dtype=float)
    at = np.flatnonzero(degrees > 1)
    return float(classes.survival(classes.symmetric(at, (N,), degrees[at]),
                                  [law.log_p(np.arange(1, N + 1))])[0, 0])


def mc_survival(tree: Tree, law: PercolationLaw, N: int, trials: int,
                seed: int) -> tuple[float, float]:
    """Unbiased Monte Carlo estimate of {root <-> depth N} with its
    standard error; trials are chunked into independent substreams."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    d = tree.depth_array()
    p_edge = np.ones(tree.n_vertices)
    p_edge[1:] = law.p(d[1:].astype(float))
    frontier = tree.level(N)
    hits = 0
    done = 0
    index = 0
    while done < trials:
        m = min(MC_CHUNK, trials - done)
        gen = rng.stream_rng(seed, rng.PERC_STREAM, index)
        # reach[v, t]: trial t's cluster holds v; uniforms drawn trial-major
        reach = tree.sweep_down(lambda r, p: r & (gen.random((m, len(r))).T < p),
                                np.ones((tree.n_vertices, m), dtype=bool), p_edge[:, None], N)
        hits += int(reach[frontier].any(axis=0).sum())
        done += m
        index += 1
    est = hits / trials
    stderr = math.sqrt(max(est * (1.0 - est), 1e-12) / trials)
    return est, stderr


def survival_table(source: TreeFamily | Tree, grid: Sequence[float], depths: Sequence[int],
                   mc_trials: int = 0, seed: int = 0) -> dict[tuple[float, int], tuple]:
    """(exact survival, Monte Carlo estimate, its standard error, conductance
    bound) for every (lam, N) of grid x depths; nan for the Monte Carlo pair
    when mc_trials is 0.  Every source, a family or an explicit Tree,
    sweeps its class table (classes.of_source) once for all the exact
    pairs; Monte Carlo draws every depth on one truncation, at the deepest
    N."""
    laws = [PercolationLaw(lam) for lam in grid]
    class_table = classes.of_source(source, depths)
    D = class_table.depths[-1]
    survival = classes.survival(class_table, (law.log_p(np.arange(1, D + 1)) for law in laws))
    bound = _bound(classes.log_conductance(
        class_table, (_comparison_log_conductances(law, D) for law in laws)))
    # levels <= N of a deeper truncation list the same vertices in the same
    # order, so every depth draws as on its own truncation
    tree = truncation(source, max(depths)) if mc_trials else None
    table = {}
    for j, N in enumerate(depths):
        for i, (lam, law) in enumerate(zip(grid, laws)):
            mc = mc_survival(tree, law, N, mc_trials, seed) if mc_trials else (math.nan,) * 2
            table[lam, N] = (float(survival[i, j]), *mc, float(bound[i, j]))
    return table


def theta_estimate(source: TreeFamily | Tree, schedule: DepthSchedule,
                   grid: Sequence[float]) -> BracketResult:
    """Bracket the percolation threshold by classifying the exact survival
    trajectories over the schedule (supercritical side = 'below')."""
    grid = rate_grid(grid)
    table = survival_table(source, grid, schedule.depths)
    return theta_from_survival(schedule, {lam: [table[lam, N][0] for N in schedule.depths]
                                          for lam in grid})


def theta_from_survival(schedule: DepthSchedule,
                        survival: dict[float, Sequence[float]]) -> BracketResult:
    """The theta bracket from survival probabilities, one per scheduled
    depth for each grid value; zeros are clamped to LOG_FLOOR."""
    trajectories = {lam: tuple(math.log(s) if s > 0.0 else LOG_FLOOR for s in column)
                    for lam, column in survival.items()}
    return trajectory_bracket(tuple(sorted(survival)), schedule, trajectories)


def _comparison_log_conductances(law: PercolationLaw, N: int) -> np.ndarray:
    """log c(n) = log P[root <-> depth n] - log(1 - p(n)) for n = 1..N, the
    comparison network's conductance of every depth-n edge (+inf at p = 1)."""
    logp = law.log_p(np.arange(1, N + 1))
    with np.errstate(divide="ignore"):
        return np.cumsum(logp) - np.log(-np.expm1(logp))


def _bound(log_C):  # C/(1+C) = 1/(1+R)
    return np.exp(-np.logaddexp(0.0, -log_C))


def percolation_conductances(tree: Tree, law: PercolationLaw, N: int) -> np.ndarray:
    """Log conductances of the comparison network
    c(e(x)) = P[root <-> x] / (1 - p(e(x))), nan at the root and below depth N.
    Raises ValueError unless the tree reaches depth N."""
    tree.check_depth(N)
    per_depth = np.full(tree.height() + 1, np.nan)
    per_depth[1:N + 1] = _comparison_log_conductances(law, N)
    return per_depth[tree.depth_array()]


def conductance_bound(tree: Tree, law: PercolationLaw, N: int) -> float:
    """Lower bound C/(1+C) <= P[root <-> depth N] from the comparison
    network's effective conductance."""
    log_c = percolation_conductances(tree, law, N)
    return float(_bound(walks.log_effective_conductance(tree, log_c, N)))


def conductance_bound_symmetric(log2_levels: Sequence[float], lam: float, N: int) -> float:
    """conductance_bound of a spherically symmetric truncation from its
    level sizes."""
    return float(_bound(classes.log_conductance(classes.from_log2_levels(log2_levels, N), [
        _comparison_log_conductances(PercolationLaw(lam), N)])[0, 0]))
