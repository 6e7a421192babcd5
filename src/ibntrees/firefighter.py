"""The firefighting game on trees and the containment-threshold estimate.

Rounds are synchronous: protection is placed first, then the fire spreads
to every unprotected neighbor of a burning vertex (parents included).
The containment strategy mirrors the cut construction: pick a cutset of
weight below the margin eps = exp(-k**lam) - exp(-(k+1)**lam), promote its
child endpoints to a surrounding set, and protect it greedily by depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .flowcut import DepthSchedule, DepthWeights, min_cut, min_cut_symmetric
from .generators import TreeFamily, route, truncation
from .trees import Tree


@dataclass(frozen=True)
class BudgetSchedule:
    """Round budget rule n -> g_n (nonnegative integers)."""

    rule: Callable[[int], int]

    def __call__(self, n: int) -> int:
        g = int(self.rule(n))
        if g < 0:
            raise ValueError(f"budget must be >= 0, got {g} at round {n}")
        return g

    @staticmethod
    def exponential(K: float, gamma: float) -> "BudgetSchedule":
        """g_n = floor(K * exp(n**gamma))."""
        if K <= 0 or not 0 < gamma < 1:
            raise ValueError("need K > 0 and gamma in (0, 1)")
        return BudgetSchedule(lambda n: int(K * math.exp(n ** gamma)))


@dataclass(frozen=True)
class GameState:
    tree: Tree
    budgets: BudgetSchedule
    round: int
    burning: np.ndarray
    protected: np.ndarray

    @property
    def fire_size(self) -> int:
        return int(self.burning.sum())

    @property
    def protected_size(self) -> int:
        return int(self.protected.sum())


def new_game(tree: Tree, k: int, budgets: BudgetSchedule) -> GameState:
    """Round-0 state with the ball B(k) on fire."""
    if k < 0 or k >= tree.height():
        raise ValueError(f"initial ball radius {k} exceeds the tree depth")
    burning = tree.depth_array() <= k
    return GameState(tree, budgets, 0, burning, np.zeros(tree.n_vertices, dtype=bool))


def new_game_from(tree: Tree, initial_fire: Sequence[int], budgets: BudgetSchedule) -> GameState:
    """Round-0 state with an arbitrary finite initial fire (monotonicity checks)."""
    burning = np.zeros(tree.n_vertices, dtype=bool)
    burning[np.asarray(list(initial_fire), dtype=np.int64)] = True
    if not burning.any():
        raise ValueError("initial fire must be nonempty")
    return GameState(tree, budgets, 0, burning, np.zeros(tree.n_vertices, dtype=bool))


def _spread(tree: Tree, burning: np.ndarray, protected: np.ndarray) -> np.ndarray:
    par = tree.parent_array()
    from_parent = np.zeros(tree.n_vertices, dtype=bool)
    from_parent[1:] = burning[par[1:]]
    from_child = np.zeros(tree.n_vertices, dtype=bool)
    ids = np.flatnonzero(burning)
    ids = ids[ids > 0]
    from_child[par[ids]] = True
    return burning | (~protected & (from_parent | from_child))


def step(state: GameState, protect: Sequence[int]) -> GameState:
    """Play one round: place the protections, then spread the fire."""
    n = state.round + 1
    ids = np.asarray(sorted(set(int(v) for v in protect)), dtype=np.int64)
    if len(ids) > state.budgets(n):
        raise ValueError(f"round {n}: |S|={len(ids)} exceeds budget {state.budgets(n)}")
    if len(ids) and (state.burning[ids].any() or state.protected[ids].any()):
        bad = ids[state.burning[ids] | state.protected[ids]][0]
        raise ValueError(f"round {n}: vertex {bad} is already burning or protected")
    protected = state.protected.copy()
    if len(ids):
        protected[ids] = True
    burning = _spread(state.tree, state.burning, protected)
    return replace(state, round=n, burning=burning, protected=protected)


@dataclass(frozen=True)
class SurroundingSet:
    vertices: tuple[int, ...]
    k: int


def surrounding_set_from_cutset(tree: Tree, cut_edges: Sequence[int], k: int) -> SurroundingSet:
    """Child endpoints of a cutset, valid as a surrounding set for B(k)."""
    verts = tuple(sorted(int(v) for v in cut_edges))
    if not verts:
        raise ValueError("empty cutset")
    depths = tree.depth_array()[np.asarray(verts)]
    if int(depths.min()) <= k:
        raise ValueError(f"cutset touches B({k})")
    return SurroundingSet(verts, k)


@dataclass(frozen=True)
class PlayResult:
    contained: bool
    rounds: int
    fire_size: int
    protected_size: int
    reason: str
    history: tuple[tuple[int, int, int], ...] = field(default=())  # (round, fire, protected)


def greedy_play(tree: Tree, k: int, budgets: BudgetSchedule,
                surrounding: SurroundingSet, horizon: int) -> PlayResult:
    """Protect the surrounding set in depth order (ties by id) and report
    whether the fire froze within the horizon."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    state = new_game(tree, k, budgets)
    depths = tree.depth_array()
    queue = sorted(surrounding.vertices, key=lambda v: (int(depths[v]), v))
    pos = 0
    history = [(0, state.fire_size, 0)]
    for _ in range(horizon):
        budget = state.budgets(state.round + 1)
        chosen = []
        while pos < len(queue) and len(chosen) < budget:
            v = queue[pos]
            if state.burning[v]:
                return PlayResult(False, state.round, state.fire_size,
                                  state.protected_size,
                                  "fire reached the surrounding set", tuple(history))
            pos += 1
            chosen.append(v)
        before = state.fire_size
        state = step(state, chosen)
        history.append((state.round, state.fire_size, state.protected_size))
        if state.fire_size == before:
            return PlayResult(True, state.round, state.fire_size,
                              state.protected_size, "fire frozen", tuple(history))
    return PlayResult(False, state.round, state.fire_size, state.protected_size,
                      f"not contained by horizon {horizon}", tuple(history))


def containment_margin(k: int, lam: float) -> float:
    """eps = exp(-k**lam) - exp(-(k+1)**lam): any cutset below this weight
    stays strictly outside B(k)."""
    return math.exp(-float(k) ** lam) - math.exp(-float(k + 1) ** lam)


@dataclass(frozen=True)
class ContainmentAttempt:
    gamma: float
    contained: bool
    cut_depth: int | None   # truncation depth of the qualifying cut, if any
    reason: str
    fire_size: int = -1      # final game sizes; -1 when no game was played
    protected_size: int = -1


@dataclass
class FireBracket:
    grid: tuple[float, ...]
    attempts: dict[float, ContainmentAttempt]
    lower: float | None = None  # largest gamma that failed
    upper: float | None = None  # smallest gamma that succeeded

    def __post_init__(self):
        failed = [g for g in self.grid if not self.attempts[g].contained]
        ok = [g for g in self.grid if self.attempts[g].contained]
        self.lower = max(failed) if failed else None
        self.upper = min(ok) if ok else None

    def interval(self) -> tuple[float, float]:
        return (self.lower if self.lower is not None else self.grid[0],
                self.upper if self.upper is not None else self.grid[-1])


def attempt_containment(source: TreeFamily | Tree, k: int, gamma: float, K: float,
                        schedule: DepthSchedule) -> ContainmentAttempt:
    """Run the cut-based strategy for one rate gamma.

    Over the depth schedule, look for a cutset of weight below the margin
    (which forces it outside B(k)), promote it to a surrounding set and
    play greedily with budgets floor(K * exp(n**gamma)).  Containment with
    no qualifying cutset at any scheduled depth counts as failure.
    """
    eps = containment_margin(k, gamma)
    budgets = BudgetSchedule.exponential(K, gamma)
    weights = DepthWeights.ibn(gamma)
    symmetric = route(source) == "symmetric"
    last_play = None
    for N in schedule.depths:
        if N <= k + 1:
            continue
        if symmetric:
            log_val, level = min_cut_symmetric(source.level_log2_sizes(N), gamma, N)
            if log_val >= math.log(eps) or level <= k:
                continue
            tree = source.build(level)
            cut = tree.level_set(level)
        else:
            tree = truncation(source, N)
            res = min_cut(tree, weights, N, want_cut=True)
            if res.log_value >= math.log(eps):
                continue
            cut = res.cut
            if int(tree.depth_array()[np.asarray(cut)].min()) <= k:
                continue
        surrounding = surrounding_set_from_cutset(tree, cut, k)
        horizon = max(int(tree.depth_array()[np.asarray(surrounding.vertices)].max()), 1) + 1
        play = greedy_play(tree, k, budgets, surrounding, horizon)
        last_play = play
        if play.contained:
            return ContainmentAttempt(gamma, True, N, play.reason,
                                      play.fire_size, play.protected_size)
    if last_play is not None:
        return ContainmentAttempt(gamma, False, None,
                                  f"greedy protection too slow: {last_play.reason}",
                                  last_play.fire_size, last_play.protected_size)
    return ContainmentAttempt(gamma, False, None,
                              f"no cutset below the containment margin {eps:.3g} "
                              f"within the schedule")


def lambda_c_estimate(source: TreeFamily | Tree, k: int, gamma_grid: Sequence[float],
                      K: float, schedule: DepthSchedule) -> FireBracket:
    """Bracket the containment threshold over a gamma grid."""
    gamma_grid = tuple(sorted(gamma_grid))
    if any(not 0 < g < 1 for g in gamma_grid):
        raise ValueError("gamma grid must lie inside (0, 1)")
    attempts = {g: attempt_containment(source, k, g, K, schedule)
                for g in gamma_grid}
    return FireBracket(grid=gamma_grid, attempts=attempts)
