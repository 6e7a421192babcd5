"""Min-cuts, max-flows and growth/branching-number estimates on truncations.

The branching-number weight exp(-|e|**lam) underflows doubles long before
the depths the estimators need, so every cut computation here works on log
weights; linear values are derived views.  Three evaluation routes feed
the same classifier:

* explicit trees and materialized truncations: a bottom-up recursion
  m(v) = min(w(v), sum over children), vectorized level by level;
* spherically symmetric families: the recursion collapses to
  min over n of #E_n * w(n), evaluated from level sizes alone;
* the stretched 3-1 family: a piecewise-constant dynamic program over base
  levels (see three_one_log_min_cut) that reaches depths far beyond any
  materializable truncation.

generators.route decides which route a source takes, and
generators.truncation supplies the trees the level sweeps run on.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .generators import (DEFAULT_VERTEX_CAP, LOG2, TreeFamily,
                         base_level_at_depth, route, triangular, truncation)
from .trees import Tree

NEG_INF = float("-inf")

# linear values below this are clamped to 0.0 and flagged effectively-zero
UNDERFLOW_FLOOR = 1e-300


@dataclass(frozen=True)
class DepthWeights:
    """Edge weight profile depending only on edge depth, held in log space."""

    log_weight: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def ibn(lam: float) -> "DepthWeights":
        """w(e) = exp(-|e|**lam), the branching-number family."""
        if not 0 < lam:
            raise ValueError("lam must be positive")
        return DepthWeights(lambda d: -np.power(d.astype(float), lam))


def edge_log_weights(tree: Tree, weights) -> np.ndarray:
    """Per-edge log weights as an array indexed by child vertex id."""
    if isinstance(weights, DepthWeights):
        d = tree.depth_array()
        out = np.empty(tree.n_vertices)
        out[0] = np.nan
        out[1:] = weights.log_weight(d[1:])
        return out
    w = np.asarray(weights, dtype=float)
    if w.shape != (tree.n_vertices,):
        raise ValueError("per-edge log weights must have one slot per vertex")
    return w


def _segment_logsumexp(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    lengths = np.diff(np.append(starts, len(vals)))
    segmax = np.maximum.reduceat(vals, starts)
    rep = np.repeat(segmax, lengths)
    with np.errstate(invalid="ignore"):
        shifted = np.where(np.isneginf(rep), NEG_INF, vals - rep)
    sums = np.add.reduceat(np.exp(shifted), starts)
    with np.errstate(divide="ignore"):
        return np.where(np.isneginf(segmax), NEG_INF, segmax + np.log(sums))


@dataclass(frozen=True)
class MinCut:
    log_value: float
    cut: tuple[int, ...] | None
    clamped: bool  # linear value underflowed to 0

    @property
    def value(self) -> float:
        return math.exp(self.log_value) if self.log_value > math.log(UNDERFLOW_FLOOR) else 0.0


def _cut_tables(tree: Tree, logw: np.ndarray, N: int):
    """Bottom-up tables m, msum of the cut recursion on the depth-N truncation."""
    if tree.n_vertices < 2:
        raise ValueError("empty tree")
    if N < 1 or tree.height() < N:
        raise ValueError(f"tree must reach depth N={N}")
    n = tree.n_vertices
    m = np.full(n, NEG_INF)
    msum = np.full(n, NEG_INF)
    msum[tree.level(N)] = np.inf  # frontier: the edge itself is the only option
    for k in range(N, 0, -1):
        lv = tree.level(k)
        m[lv] = np.minimum(logw[lv], msum[lv])
        ids, starts, parents = tree.siblings(k)
        msum[parents] = _segment_logsumexp(m[ids], starts)
    return m, msum


def min_cut(tree: Tree, weights, N: int, want_cut: bool = True) -> MinCut:
    """Minimum cutset weight of the depth-N truncation.

    Recursion: m(v) = min(w(e_v), sum over children m(c)); frontier vertices
    cut their own edge, branches that die out before depth N cost nothing.
    Ties break toward the shallower cut.
    """
    logw = edge_log_weights(tree, weights)
    m, msum = _cut_tables(tree, logw, N)
    log_value = float(msum[0])
    cut = None
    if want_cut:
        # from the root down: a live vertex cuts its own edge when that is no
        # dearer than its children's cuts, and otherwise passes the search on
        par = tree.parent_array()
        searched = np.zeros(tree.n_vertices, dtype=bool)
        searched[0] = True
        picked = []
        for k in range(1, N + 1):
            lv = tree.level(k)
            live = searched[par[lv]] & (m[lv] > NEG_INF)
            take = live & (logw[lv] <= msum[lv])
            picked.append(lv[take])
            searched[lv] = live & ~take
        cut = tuple(np.sort(np.concatenate(picked)).tolist())
    return MinCut(log_value, cut, clamped=log_value <= math.log(UNDERFLOW_FLOOR))


def max_flow(tree: Tree, weights, N: int) -> np.ndarray:
    """Admissible flow (linear, per edge) whose Strength equals the min-cut.

    Built top-down: each vertex splits its inflow among children in
    proportion to their subtree min-cuts, which throttles every edge below
    its own capacity.
    """
    logw = edge_log_weights(tree, weights)
    m, msum = _cut_tables(tree, logw, N)
    par = tree.parent_array()
    theta = np.zeros(tree.n_vertices)
    for c in tree.children(0):
        theta[c] = math.exp(m[c]) if m[c] > NEG_INF else 0.0
    for k in range(2, N + 1):
        lv = tree.level(k)
        p = par[lv]
        with np.errstate(invalid="ignore"):
            share = np.exp(m[lv] - msum[p])
        ok = (theta[p] > 0.0) & (m[lv] > NEG_INF)
        theta[lv] = np.where(ok, theta[p] * np.where(np.isfinite(share), share, 0.0), 0.0)
    return theta


def min_cut_symmetric(log2_levels: Sequence[float], lam: float, N: int) -> tuple[float, int]:
    """Min-cut of a spherically symmetric truncation from level sizes alone.

    By symmetry the optimum is a full level: min over 1 <= n <= N of
    #E_n * exp(-n**lam).  Returns (log value, argmin level, shallowest on
    ties).
    """
    lv = np.asarray(log2_levels, dtype=float)
    if len(lv) < N + 1:
        raise ValueError("need level sizes up to depth N")
    n = np.arange(1, N + 1, dtype=float)
    logvals = lv[1:N + 1] * LOG2 - np.power(n, lam)
    i = int(np.argmin(logvals))
    return float(logvals[i]), i + 1


# -- stretched 3-1 tree: exact min-cut without materialization -------------

def three_one_log_min_cut(lam: float, m: int) -> float:
    """Log min-cut of the stretched 3-1 tree truncated at depth D(m) = m(m+1)/2.

    Subtrees of the base tree are classified by (level n, distance s from
    the right edge): a thick vertex (n, s) has children (n+1, 3s+r) for
    r in {0,1,2}, thick iff 3s+r <= 2**n - 1, thin children being rays that
    are cut at the frontier.  The cut value mu_n(s) = min(W_n, sum of child
    values) is nonincreasing and piecewise constant in s, so each level is
    stored as its breakpoint list; the min() clip keeps the piece count
    small.  Breakpoint positions are exact big integers.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    logW = [0.0] + [-(float(triangular(j)) ** lam) for j in range(1, m + 1)]
    thin = logW[m]  # any surviving ray is cut at the frontier
    if m == 1:
        return math.log(2.0) + logW[1]

    def lse3(a: float, b: float, c: float) -> float:
        hi = max(a, b, c)
        return hi + math.log(math.exp(a - hi) + math.exp(b - hi) + math.exp(c - hi))

    # level m: every thick state is a frontier path
    starts: list[int] = [0]
    vals: list[float] = [logW[m]]
    for n in range(m - 1, 0, -1):
        dom = 1 << (n - 1)        # thick states s in [0, dom-1] at level n
        child_bound = 1 << n      # child thick iff s' < child_bound

        def val(x: int) -> float:
            if x >= child_bound:
                return thin
            return vals[bisect_right(starts, x) - 1]

        cands = {0}
        for b in starts + [child_bound]:
            for r in (0, 1, 2):
                s0 = -((-(b - r)) // 3)  # ceil((b - r) / 3)
                if 0 < s0 < dom:
                    cands.add(s0)
        new_starts: list[int] = []
        new_vals: list[float] = []
        prev = None
        for s in sorted(cands):
            h = lse3(val(3 * s), val(3 * s + 1), val(3 * s + 2))
            v = min(logW[n], h)
            if prev is not None and v > prev + 1e-9:
                raise AssertionError("cut profile must be nonincreasing in s")
            if prev is None or v != prev:
                new_starts.append(s)
                new_vals.append(v)
                prev = v
        starts, vals = new_starts, new_vals

    # root: one thin child (a ray) plus the thick level-1 child at s = 0
    return float(np.logaddexp(thin, vals[0]))


# -- growth estimate --------------------------------------------------------

@dataclass(frozen=True)
class IgrEstimate:
    slope: float            # LS slope of log log #E_n against log n (tail window)
    estimate: float         # slope clamped to the grid range
    endpoint: float         # log log #E_N / log N
    grid_sup: float | None  # largest grid lam with all tail level sums >= 1


def igr_estimate(level_log2_sizes: Sequence[float], N: int,
                 grid: Sequence[float] = tuple(np.arange(1, 20) * 0.05)) -> IgrEstimate:
    """Growth index of a truncation from its level sizes.

    The headline number is the regression slope of log log #E_n on log n
    over the tail window [N/8, N]; the level-sum test (is
    #E_n * exp(-n**lam) >= 1 on the window) is reported alongside as
    grid_sup, and the raw endpoint ratio as a diagnostic.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    lv = np.asarray(level_log2_sizes, dtype=float)
    if len(lv) < N + 1:
        raise ValueError("need level sizes up to depth N")
    grid = tuple(sorted(grid))
    lo = max(2, N // 8)
    ns = np.arange(lo, N + 1)
    loge = lv[lo:N + 1] * LOG2
    usable = loge > 0
    if usable.sum() >= 2:
        x = np.log(ns[usable].astype(float))
        y = np.log(loge[usable])
        slope = float(np.polyfit(x, y, 1)[0]) if len(x) > 1 else 0.0
    else:
        slope = 0.0
    endpoint = float(math.log(lv[N] * LOG2) / math.log(N)) if lv[N] * LOG2 > 1.0 and N > 1 else 0.0
    grid_sup = None
    for lam in grid:
        if (loge - np.power(ns.astype(float), lam) >= 0).all():
            grid_sup = lam
    estimate = min(max(slope, grid[0]), grid[-1])
    return IgrEstimate(slope=slope, estimate=estimate, endpoint=endpoint, grid_sup=grid_sup)


# -- schedules, classification, brackets ------------------------------------

@dataclass(frozen=True)
class DepthSchedule:
    """Increasing truncation depths plus the decision thresholds."""

    depths: tuple[int, ...]
    eps_stop: float = 1e-6
    c_stay: float = 1e-3

    def __post_init__(self):
        if not self.depths or any(d < 1 for d in self.depths):
            raise ValueError("schedule depths must be >= 1")
        if any(b <= a for a, b in zip(self.depths, self.depths[1:])):
            raise ValueError("schedule depths must be strictly increasing")
        if not 0 < self.eps_stop < self.c_stay:
            raise ValueError("need 0 < eps_stop < c_stay")

    @staticmethod
    def doubling(lo: int = 16, hi: int = 1024, **kw) -> "DepthSchedule":
        depths = []
        d = lo
        while d < hi:
            depths.append(d)
            d *= 2
        depths.append(hi)
        return DepthSchedule(tuple(depths), **kw)


def classify_trajectory(log_values: Sequence[float], schedule: DepthSchedule) -> str:
    """'above' if values fall below eps_stop monotonically, 'below' if they
    stay at or above c_stay, else 'undecided'."""
    v = np.asarray(log_values, dtype=float)
    monotone = bool((np.diff(v) <= 1e-9).all())
    if monotone and v[-1] < math.log(schedule.eps_stop):
        return "above"
    if v.min() >= math.log(schedule.c_stay):
        return "below"
    return "undecided"


@dataclass
class BracketResult:
    """Grid classification with the induced bracket for a critical value.

    Each grid value's trajectory is classified against the schedule;
    depths_used (the truncation depths the trajectories were taken at)
    defaults to the schedule's depths.
    """

    grid: tuple[float, ...]
    schedule: DepthSchedule
    trajectories: dict[float, tuple[float, ...]]  # log values per depth
    depths_used: tuple[int, ...] = ()
    classifications: dict[float, str] = field(init=False)
    lower: float | None = field(init=False)  # largest grid value classified below
    upper: float | None = field(init=False)  # smallest grid value classified above

    def __post_init__(self):
        if not self.depths_used:
            self.depths_used = self.schedule.depths
        self.classifications = {g: classify_trajectory(self.trajectories[g], self.schedule)
                                for g in self.grid}
        below = [g for g in self.grid if self.classifications[g] == "below"]
        above = [g for g in self.grid if self.classifications[g] == "above"]
        self.lower = max(below) if below else None
        self.upper = min(above) if above else None

    @property
    def undecided(self) -> list[float]:
        return [g for g in self.grid if self.classifications[g] == "undecided"]

    def interval(self) -> tuple[float, float]:
        return (self.lower if self.lower is not None else self.grid[0],
                self.upper if self.upper is not None else self.grid[-1])

    def contains(self, x: float) -> bool:
        lo, hi = self.interval()
        return lo <= x <= hi

    def width(self) -> float:
        lo, hi = self.interval()
        return hi - lo


DEFAULT_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))


def ibn_estimate(source: TreeFamily | Tree, schedule: DepthSchedule,
                 grid: Sequence[float] = DEFAULT_GRID,
                 max_vertices: int = DEFAULT_VERTEX_CAP) -> BracketResult:
    """Bracket the branching number by classifying min-cut trajectories.

    The route follows generators.route: symmetric families use level sizes,
    the stretched 3-1 family its DP at base-level depths, and anything else
    a level sweep over each truncation (an explicit Tree must reach the
    deepest scheduled depth).
    """
    grid = tuple(sorted(grid))
    if any(not 0 < g < 1 for g in grid):
        raise ValueError("grid must lie inside (0, 1)")
    kind = route(source)
    if kind == "three-one":
        ms = tuple(max(1, base_level_at_depth(N) - (0 if triangular(base_level_at_depth(N)) <= N else 1))
                   for N in schedule.depths)
        trajectories = {lam: tuple(three_one_log_min_cut(lam, m) for m in ms) for lam in grid}
        return BracketResult(grid, schedule, trajectories,
                             depths_used=tuple(triangular(m) for m in ms))
    if kind == "symmetric":
        lv = source.level_log2_sizes(schedule.depths[-1])
        trajectories = {lam: tuple(min_cut_symmetric(lv, lam, N)[0] for N in schedule.depths)
                        for lam in grid}
        return BracketResult(grid, schedule, trajectories)
    columns: dict[float, list[float]] = {lam: [] for lam in grid}
    for N in schedule.depths:
        tree = truncation(source, N, max_vertices)
        for lam, column in columns.items():
            column.append(min_cut(tree, DepthWeights.ibn(lam), N, want_cut=False).log_value)
    return BracketResult(grid, schedule, {lam: tuple(c) for lam, c in columns.items()})
