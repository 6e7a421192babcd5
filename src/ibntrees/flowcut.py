"""Min-cuts, max-flows and growth/branching-number estimates on truncations.

The branching-number weight exp(-|e|**lam) underflows doubles long before
the depths the estimators need, so every cut computation here works on log
weights, per-edge arrays indexed by child vertex id (ibn_log_weights
builds the IBN's); linear values are derived views.  Three evaluation
routes feed the same classifier:

* explicit trees and materialized truncations: a bottom-up recursion
  m(v) = min(w(v), sum over children), one Tree.sweep_up that folds
  siblings by one np.logaddexp reduction, as effective conductance does;
  the cut and the flow are read off it by Tree.sweep_down;
* spherically symmetric families: the recursion collapses to
  min over n of #E_n * w(n), evaluated from level sizes alone;
* the stretched 3-1 family: a piecewise-constant dynamic program over base
  levels (see three_one_log_min_cut) that reaches depths far beyond any
  materializable truncation.  Its breakpoints lie on a lattice of floors
  floor(2**(n+k-1) / 3**k) that the deepest frontier fixes and every
  shallower one shares, so one level pass over a (positions, columns)
  array evaluates every (rate, depth) pair of a bracket at once.

generators.route decides which route a source takes; the level sweeps
run on an explicit Tree, each scheduled depth on the one tree.  Every
estimator reports a BracketResult: per-value classifications and the
bracket they induce.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from operator import neg
from typing import Sequence

import numpy as np

from .generators import LOG2, TreeFamily, base_level_at_depth, check_elements, route, triangular
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
    if tree.n_vertices < 2:
        raise ValueError("empty tree")
    if N < 1 or tree.height() < N:
        raise ValueError(f"tree must reach depth N={N}")
    msum = np.full(tree.n_vertices, NEG_INF)
    msum[tree.level(N)] = np.inf  # frontier: the edge itself is the only option
    return tree.sweep_up(msum, N, lambda vals, ids, starts:
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
        live = np.zeros(tree.n_vertices, dtype=bool)
        live[tree.level(N)] = True  # not m > -inf: a zero-weight cut gives that too
        tree.sweep_up(live, N, lambda vals, ids, starts: np.logical_or.reduceat(vals, starts))
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

# Lattice positions below this are placed by an int64 search; above it the
# floors lie far enough apart for the closed-form child piece.
EXACT_BELOW = 1 << 40


def _three_one_gathers(M: int):
    """Gather indices of the 3-1 DP on the breakpoint lattice of frontier M.

    Yields, for base levels n = M-1, ..., 1, an int64 array idx[r, p]: the
    row, among level n+1's positions followed by one thin row, of the piece
    that holds the child 3s + r of level n's p-th position s.  A level's
    positions are the small ones -- 0, 1 and F, F + 1 for its floors below
    EXACT_BELOW, sorted -- then F_k, F_k + 1 for k = kb, ..., 1, its kb
    floors above; the frontier has the position 0 alone.
    """
    floors = ()  # the child level's nonzero floors, descending
    kb, n_small, P = 0, 1, 1
    low = np.zeros(1, dtype=np.int64)  # the child's positions below 4 * EXACT_BELOW
    for n in range(M - 1, 0, -1):
        child_small, child_kb, child_low, child_P = n_small, kb, low, P
        floors, rems = zip(*map(divmod, [1 << n, *floors], repeat(3)))
        floors = floors[:bisect_right(floors, -1, key=neg)]  # drop the zeros
        kb = bisect_right(floors, -EXACT_BELOW, key=neg)
        small = sorted({0, 1, *floors[kb:], *[f + 1 for f in floors[kb:]]})
        del small[bisect_left(small, 1 << (n - 1)):]  # thick states s < 2**(n-1)
        near = floors[bisect_right(floors, -4 * EXACT_BELOW, hi=kb, key=neg):kb]
        low = np.array(small + [p for f in reversed(near) for p in (f, f + 1)], dtype=np.int64)
        n_small = len(small)
        P = n_small + 2 * kb

        x = 3 * low[:n_small] + np.arange(3)[:, None]
        idx_small = np.searchsorted(child_low, x, side="right") - 1
        if n < 62:
            idx_small[x >= 1 << n] = child_P  # a thin child
        # F_k + e for k = kb..1: its child F'_{k-1} + o lies in the piece at
        # row at[k], or the one before or after it by the sign of o
        t = np.array(rems[:kb][::-1], dtype=np.int64)
        o = 3 * np.arange(2) - t[:, None] + np.arange(3)[:, None, None]  # [r, k, e]
        at = child_small + 2 * (child_kb + 1 - np.arange(kb, 0, -1))
        idx_big = at[:, None] + np.sign(o)
        np.minimum(idx_big, child_P, out=idx_big)  # past F'_0 = 2**n: a thin child
        yield np.concatenate((idx_small, idx_big.reshape(3, -1)), axis=1)


def three_one_log_min_cut(lams: Sequence[float], ms: Sequence[int]) -> np.ndarray:
    """Log min-cut of the stretched 3-1 tree at depth D(m) = m(m+1)/2, for
    every rate in lams and base level in ms: an array [len(lams), len(ms)].

    Subtrees of the base tree are classified by (level n, distance s from
    the right edge): a thick vertex (n, s) has children (n+1, 3s+r) for
    r in {0,1,2}, thick iff 3s+r <= 2**n - 1, thin children being rays that
    are cut at the frontier.  The cut value mu_n(s) = min(W_n, sum of child
    values) is nonincreasing and piecewise constant in s.

    For the deepest frontier M = max(ms), every breakpoint of level n lies
    on the lattice {0, 1} and {F_k, F_k + 1 : 1 <= k <= M - n} below
    2**(n-1), with F_k = floor(2**(n+k-1) / 3**k): a breakpoint b of the
    child level gives ceil((b - r) / 3), and F'_{k-1} = 3 F_k + t with
    t in {0,1,2}.  Each level's floors come from the child's by one
    divmod by 3, starting from F'_0 = 2**n, the child's thick bound.  The
    child of a lattice position F_k + e is 3(F_k + e) + r = F'_{k-1} + o
    with o = 3e + r - t in [-2, 5], so it lies in the child piece before,
    at or after F'_{k-1} by the sign of o, with no big-integer search;
    positions below EXACT_BELOW, where floors can collide, are placed by
    np.searchsorted on exact int64 values instead.

    A shallower frontier m <= M has a subset of this lattice at every
    level, so each (rate, m) column samples its own piecewise-constant
    function on the shared lattice: one pass over (positions, columns)
    arrays serves them all.  Column m joins at level m - 1 with the
    constant frontier value W_m, the same value its thin children take.
    Every column gets the float operations of the scalar breakpoint DP
    (log-sum-exp of the three children with the maximum pulled out, then
    the min with W_n), evaluated at more positions; numpy's exp and log
    may differ from math's in the last bit.
    """
    lams = [float(lam) for lam in lams]
    ms = [int(m) for m in ms]
    if any(m < 1 for m in ms):
        raise ValueError("m must be >= 1")
    if not lams or not ms:
        return np.empty((len(lams), len(ms)))
    L = len(lams)
    frontiers = sorted(set(ms), reverse=True)
    M = frontiers[0]
    check_elements(M * M, "the 3-1 breakpoint lattice")  # the gathers' work grows as M**2
    logW = np.array([[0.0] + [-(float(triangular(j)) ** lam) for j in range(1, M + 1)]
                     for lam in lams])  # [rate, base level]
    # column f * L + i is (lams[i], frontiers[f]); the live columns at
    # level n (frontier m > n) are a prefix
    thin = logW[:, frontiers].T.ravel()
    W = np.tile(logW.T, (1, len(frontiers)))  # [base level, column]

    # level M: the frontier, one piece at s = 0; vals[-1] is the thin row
    vals = np.empty((2, 0))
    live = 0
    gathers = _three_one_gathers(M)
    for n in range(M - 1, -1, -1):
        if n + 1 in frontiers:  # columns with frontier m = n + 1 join
            grown = np.empty((len(vals), live + L))
            grown[:, :live] = vals
            grown[:, live:] = logW[:, n + 1]
            vals, live = grown, live + L
        if n == 0:
            break
        g = vals[next(gathers)]  # [child r, position, column]
        hi = np.maximum(g[0], g[1])
        np.maximum(hi, g[2], out=hi)
        g -= hi
        np.exp(g, out=g)
        P = g.shape[1]
        vals = np.empty((P + 1, live))
        v = vals[:P]
        np.add(g[0], g[1], out=v)
        v += g[2]
        np.log(v, out=v)
        v += hi
        np.minimum(v, W[n, :live], out=v)
        vals[P] = thin[:live]
        if (v[1:] - v[:-1] > 1e-9).any():
            raise AssertionError("cut profile must be nonincreasing in s")

    # root: one thin child (a ray) plus the thick level-1 child at s = 0
    root = np.logaddexp(thin, vals[0]).reshape(len(frontiers), L)
    return root[[frontiers.index(m) for m in ms]].T


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
                       trajectories: dict[float, tuple[float, ...]],
                       depths_used: tuple[int, ...] = ()) -> BracketResult:
    """Classify each grid value's log-value trajectory against the
    schedule; depths_used defaults to the schedule's depths."""
    return BracketResult(grid, {g: classify_trajectory(trajectories[g], schedule) for g in grid},
                         trajectories, depths_used or schedule.depths)


DEFAULT_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))


def ibn_estimate(source: TreeFamily | Tree, schedule: DepthSchedule,
                 grid: Sequence[float] = DEFAULT_GRID) -> BracketResult:
    """Bracket the branching number by classifying min-cut trajectories.

    The route follows generators.route: symmetric families use level sizes,
    the stretched 3-1 family its DP at base-level depths, and an explicit
    Tree a level sweep per depth on the tree itself (it must reach the
    deepest scheduled depth).
    """
    grid = tuple(sorted(grid))
    if any(not 0 < g < 1 for g in grid):
        raise ValueError("grid must lie inside (0, 1)")
    kind = route(source)
    if kind == "three-one":
        ms = tuple(max(1, base_level_at_depth(N + 1) - 1) for N in schedule.depths)  # D(m) <= N
        table = three_one_log_min_cut(grid, ms)
        trajectories = {lam: tuple(row) for lam, row in zip(grid, table.tolist())}
        return trajectory_bracket(grid, schedule, trajectories, tuple(triangular(m) for m in ms))
    if kind == "symmetric":
        lv = source.level_log2_sizes(schedule.depths[-1])
        trajectories = {lam: tuple(min_cut_symmetric(lv, lam, N)[0] for N in schedule.depths)
                        for lam in grid}
        return trajectory_bracket(grid, schedule, trajectories)
    trajectories = {}
    for lam in grid:
        logw = ibn_log_weights(source, lam)
        trajectories[lam] = tuple(min_cut(source, logw, N, want_cut=False).log_value
                                  for N in schedule.depths)
    return trajectory_bracket(grid, schedule, trajectories)
