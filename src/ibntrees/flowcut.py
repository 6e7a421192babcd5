"""Min-cuts, max-flows and growth/branching-number estimates on truncations.

The branching-number weight exp(-|e|**lam) underflows doubles long before
the depths the estimators need, so every cut computation here works on log
weights, per-edge arrays indexed by child vertex id (ibn_log_weights
builds the IBN's); linear values are derived views.  Two evaluation
routes:

* per vertex, on a materialized tree under any per-edge log weights: a
  bottom-up recursion m(v) = min(w(v), sum over children), one
  Tree.sweep_up that folds siblings by one np.logaddexp reduction, as
  effective conductance does; the cut and the flow are read off it by
  Tree.sweep_down;
* per class, under the depth-only IBN weight: one sweep of the source's
  class table (classes.py) evaluates every (rate, depth) pair of a bracket
  at once, for a family far beyond any materializable truncation.

ibn_estimate takes the class-table route for every source, a family or
an explicit Tree; min_cut serves the firefighter's cut sets, and is the
test oracle of the class route and of walks.rt_estimate, which folds the
random fields' cuts on the tree's branch depths only.  Every estimator
reports a BracketResult: per-value classifications and the bracket they
induce.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import classes
from .generators import LOG2, LevelReader, TreeFamily, triangular
from .trees import Tree

NEG_INF = float("-inf")

# linear values below this are clamped to 0.0 and flagged effectively-zero
UNDERFLOW_FLOOR = 1e-300


def ibn_log_weights(tree: Tree, lam: float) -> np.ndarray:
    """log w(e) = -|e|**lam, the branching-number weight, indexed by child
    vertex id (slot 0 is nan).  The same array is the walk's deterministic
    log conductances.  An overflowing power gives -inf: the weight is 0."""
    d = tree.depth_array().astype(float)
    logw = np.empty(tree.n_vertices)
    logw[0] = np.nan
    with np.errstate(over="ignore"):
        logw[1:] = -np.power(d[1:], lam)
    return logw


def _check_log_weights(tree: Tree, logw: np.ndarray) -> np.ndarray:
    logw = np.asarray(logw, dtype=float)
    if logw.shape != (tree.n_vertices,):
        raise ValueError("per-edge log weights must have one slot per vertex")
    return logw


@dataclass(frozen=True)
class MinCut:
    log_value: float
    cut: tuple[int, ...] | None
    clamped: bool  # linear value below UNDERFLOW_FLOOR, read as 0

    @property
    def value(self) -> float:
        return math.exp(self.log_value) if self.log_value > math.log(UNDERFLOW_FLOOR) else 0.0


def _cut_table(tree: Tree, logw: np.ndarray, N: int) -> np.ndarray:
    """Bottom-up table msum of the cut recursion on the depth-N truncation:
    the log cut of each vertex's children; m = minimum(logw, msum).  Each
    level folds its siblings by one np.logaddexp.reduceat, which gives -inf
    on a segment that is all -inf (dead branches, zero-weight edges)."""
    # msum is +inf at the frontier: the edge itself is the only option
    return tree.sweep_up(N, NEG_INF, np.inf, lambda vals, ids, starts:
                         np.logaddexp.reduceat(np.minimum(logw[ids], vals), starts))


def min_cut(tree: Tree, logw: np.ndarray, N: int, want_cut: bool = True) -> MinCut:
    """Minimum cutset weight of the depth-N truncation under the per-edge
    log weights logw.

    Recursion: m(v) = min(w(e_v), sum over children m(c)); frontier vertices
    cut their own edge, branches that die out before depth N cost nothing.
    Ties break toward the shallower cut.
    """
    logw = _check_log_weights(tree, logw)
    msum = _cut_table(tree, logw, N)
    log_value = float(msum[0])
    cut = None
    if want_cut:
        # from the root down: a live vertex (at or above a depth-N one) cuts
        # its own edge when that is no dearer than its children's cuts, and
        # otherwise passes the search on
        live = tree.sweep_up(N, False, True,  # not m > -inf: a zero-weight cut gives that too
                             lambda vals, ids, starts: np.logical_or.reduceat(vals, starts))
        take = logw <= msum
        searched = np.zeros(tree.n_vertices, dtype=bool)
        searched[0] = True
        tree.sweep_down(np.logical_and, searched, live & ~take, N)
        d = tree.depth_array()
        v = np.flatnonzero((d >= 1) & (d <= N))
        cut = tuple(v[searched[tree.parent_array()[v]] & live[v] & take[v]].tolist())
    return MinCut(log_value, cut, clamped=log_value <= math.log(UNDERFLOW_FLOOR))


def max_flow(tree: Tree, logw: np.ndarray, N: int) -> np.ndarray:
    """Admissible flow (linear, per edge) whose Strength equals the min-cut.

    Built top-down: each vertex splits its inflow among children in
    proportion to their subtree min-cuts, which throttles every edge below
    its own capacity.
    """
    logw = _check_log_weights(tree, logw)
    msum = _cut_table(tree, logw, N)
    m = np.minimum(logw, msum)
    theta = np.zeros(tree.n_vertices)
    for c in tree.children(0):
        theta[c] = math.exp(m[c]) if m[c] > NEG_INF else 0.0
    share = np.zeros(tree.n_vertices)
    with np.errstate(invalid="ignore"):  # a dead parent: -inf - -inf
        share[1:] = np.exp(m[1:] - msum[tree.parent_array()[1:]])
    share[~np.isfinite(share)] = 0.0
    return tree.sweep_down(np.multiply, theta, share, N, start=2)


def min_cut_symmetric(log2_levels: Sequence[float], lam: float, N: int) -> tuple[float, int]:
    """Min-cut of a spherically symmetric truncation from its level sizes:
    (log value, depth of the cut level, the shallowest on ties)."""
    return classes.cut_levels(classes.from_log2_levels(log2_levels, N), lam)[0]


def three_one_log_min_cut(lams: Sequence[float], ms: Sequence[int]) -> np.ndarray:
    """Log min-cut of the stretched 3-1 tree at depth D(m) = m(m+1)/2, for
    every rate in lams and base level in ms: an array [len(lams), len(ms)]."""
    if any(m < 1 for m in ms):
        raise ValueError("m must be >= 1")
    return classes.log_min_cut(classes.three_one([triangular(m) for m in ms]), lams)


# -- growth estimate --------------------------------------------------------

# depths per chunk of igr_estimate's tail window: its memory is bounded by
# this, not by the schedule's depth
_IGR_CHUNK = 8192
# the rates, ascending, that igr_estimate reads grid_sup on and clamps to
_IGR_GRID = tuple(np.arange(1, 20) * 0.05)


@dataclass(frozen=True)
class IgrEstimate:
    slope: float            # LS slope of log log #E_n against log n (tail window)
    estimate: float         # slope clamped to the grid range
    endpoint: float         # log log #E_N / log N
    grid_sup: float | None  # largest grid lam with all tail level sums >= 1, else None


def _tail_chunks(levels: LevelReader, lo: int, N: int):
    """(n, ln #E_n) for depths n = lo..N, _IGR_CHUNK depths at a time."""
    for a in range(lo, N + 1, _IGR_CHUNK):
        b = min(a + _IGR_CHUNK, N + 1)
        yield np.arange(a, b, dtype=float), levels(a, b) * LOG2


def igr_estimate(levels: LevelReader, N: int) -> IgrEstimate:
    """Growth index of a truncation from its level sizes, read through
    levels (TreeFamily.level_reader).

    The headline number is the least-squares slope of log log #E_n on
    log n over the depths of the tail window [N/8, N] with #E_n > e, in
    closed form: one pass over the window takes the means, a second the
    centered sums S_xy and S_xx, and slope = S_xy / S_xx.  Both passes read
    the window _IGR_CHUNK depths at a time from the reader, which holds one
    value per step of the sizes, so the fit holds no per-depth array and
    its memory does not grow with N.  grid_sup is a diagnostic: the largest
    _IGR_GRID lam whose level-sum test (#E_n * exp(-n**lam) >= 1 on the whole
    window) holds, found by bisecting the grid: n**lam grows with lam
    for n >= 2, so the passing rates are a prefix of the grid.  Each
    test stops at its first failing chunk; an empty window (N = 1) passes
    no rate.  The endpoint ratio is a diagnostic too.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if levels.N < N:
        raise ValueError("need level sizes up to depth N")
    lo = max(2, N // 8)
    count, sum_x, sum_y = 0, 0.0, 0.0
    for n, loge in _tail_chunks(levels, lo, N):
        usable = loge > 0
        count += int(usable.sum())
        sum_x += float(np.log(n[usable]).sum())
        sum_y += float(np.log(loge[usable]).sum())
    slope = 0.0
    if count >= 2:
        mean_x, mean_y = sum_x / count, sum_y / count
        sxy = sxx = 0.0
        for n, loge in _tail_chunks(levels, lo, N):
            usable = loge > 0
            dx = np.log(n[usable]) - mean_x
            sxy += float((dx * (np.log(loge[usable]) - mean_y)).sum())
            sxx += float((dx * dx).sum())
        slope = sxy / sxx
    top = float(levels(N, N + 1)[0]) * LOG2
    endpoint = math.log(top) / math.log(N) if top > 1.0 and N > 1 else 0.0

    def fails(lam: float) -> bool:
        return not all((loge - np.power(n, lam) >= 0).all() for n, loge in _tail_chunks(levels, lo, N))

    passing = bisect.bisect_left(_IGR_GRID, True, key=fails) if lo <= N else 0
    grid_sup = _IGR_GRID[passing - 1] if passing else None
    estimate = min(max(slope, _IGR_GRID[0]), _IGR_GRID[-1])
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
    stay at or above c_stay, else 'undecided'.  A value of 0 (log -inf)
    that stays 0 does not rise."""
    v = np.asarray(log_values, dtype=float)
    with np.errstate(invalid="ignore"):  # -inf - -inf is nan, and nan > x is False
        monotone = not (np.diff(v) > 1e-9).any()
    if monotone and v[-1] < math.log(schedule.eps_stop):
        return "above"
    if v.min() >= math.log(schedule.c_stay):
        return "below"
    return "undecided"


@dataclass
class BracketResult:
    """Per-value classifications of a grid and the bracket they induce for
    a critical value.

    A value is 'below' (the critical value lies above it), 'above' (it lies
    below it) or 'undecided'.  Estimators that classify trajectories keep
    them, in log space per depth of depths_used, for their CSV rows.
    """

    grid: tuple[float, ...]
    classifications: dict[float, str]
    trajectories: dict[float, tuple[float, ...]] = field(default_factory=dict)
    depths_used: tuple[int, ...] = ()
    lower: float | None = field(init=False)  # largest grid value classified below
    upper: float | None = field(init=False)  # smallest grid value classified above

    def __post_init__(self):
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


def trajectory_bracket(grid: tuple[float, ...], schedule: DepthSchedule,
                       trajectories: dict[float, tuple[float, ...]]) -> BracketResult:
    """Classify each grid value's log-value trajectory against the schedule."""
    return BracketResult(grid, {g: classify_trajectory(trajectories[g], schedule) for g in grid},
                         trajectories, schedule.depths)


DEFAULT_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))


def rate_grid(grid: Sequence[float], upper: float = 1.0) -> tuple[float, ...]:
    """The grid sorted; ValueError if it is empty or a value lies outside
    (0, upper)."""
    grid = tuple(sorted(grid))
    if not grid:
        raise ValueError("the grid is empty")
    if not all(0 < g < upper for g in grid):
        raise ValueError(f"values must lie in (0, {upper:g})")
    return grid


def ibn_estimate(source: TreeFamily | Tree, schedule: DepthSchedule,
                 grid: Sequence[float] = DEFAULT_GRID) -> BracketResult:
    """Bracket the branching number by classifying min-cut trajectories.

    Every source, a family or an explicit Tree (which must reach the
    deepest scheduled depth), sweeps its class table (classes.of_source)
    once for every (rate, depth).
    """
    grid = rate_grid(grid)
    table = classes.log_min_cut(classes.of_source(source, schedule.depths), grid)
    return trajectory_bracket(grid, schedule, dict(zip(grid, map(tuple, table.tolist()))))
