"""The firefighting game on trees and the containment-threshold estimate.

Rounds are synchronous: protection is placed first, then the fire spreads
to every unprotected child of a burning vertex (the fire starts as a ball,
so every ancestor of a burning vertex already burns).  The containment
strategy mirrors the cut construction: pick a cutset of weight below the
margin eps = exp(-k**lam) - exp(-(k+1)**lam), promote its child endpoints
to a surrounding set, and protect it greedily by depth.  The game ends
where the fire meets that set, so attempt_containment decides it from
counts per depth on every route; the game engine stays as its reference.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import classes
from .flowcut import BracketResult, DepthSchedule, ibn_log_weights, min_cut, rate_grid
from .generators import TreeFamily, truncation
from .trees import Tree

LOG_MAXSIZE = math.log(sys.maxsize)
MAX_EXP = math.log(sys.float_info.max)  # math.exp overflows above this


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
        """g_n = floor(K * exp(n**gamma)), capped at sys.maxsize: a budget
        is only ever compared with a vertex count."""
        if K <= 0 or not 0 < gamma < 1:
            raise ValueError("need K > 0 and gamma in (0, 1)")

        def rule(n: int) -> int:
            x = n ** gamma
            if math.log(K) + x >= LOG_MAXSIZE:
                return sys.maxsize
            if x > MAX_EXP:  # exp(x) overflows; only reached for K < exp(-665)
                return int(math.exp(math.log(K) + x))
            return min(int(K * math.exp(x)), sys.maxsize)

        return BudgetSchedule(rule)


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
    from_parent = np.zeros(state.tree.n_vertices, dtype=bool)
    from_parent[1:] = state.burning[state.tree.parent_array()[1:]]
    burning = state.burning | (~protected & from_parent)
    return replace(state, round=n, burning=burning, protected=protected)


def surrounding_set_from_cutset(tree: Tree, cut_edges: Sequence[int], k: int) -> tuple[int, ...]:
    """Child endpoints of a cutset, valid as a surrounding set for B(k)."""
    verts = tuple(sorted(int(v) for v in cut_edges))
    if not verts:
        raise ValueError("empty cutset")
    depths = tree.depth_array()[np.asarray(verts)]
    if int(depths.min()) <= k:
        raise ValueError(f"cutset touches B({k})")
    return verts


@dataclass(frozen=True)
class PlayResult:
    contained: bool
    rounds: int
    fire_size: int
    protected_size: int
    reason: str
    history: tuple[tuple[int, int, int], ...] = field(default=())  # (round, fire, protected)


def greedy_play(tree: Tree, k: int, budgets: BudgetSchedule,
                surrounding: Sequence[int]) -> PlayResult:
    """Protect the surrounding set in depth order (ties by id) until the fire
    meets it or stops.  The fire gains a level each round it grows, so the
    game ends within height - k + 1 rounds."""
    state = new_game(tree, k, budgets)
    depths = tree.depth_array()
    queue = np.array(sorted(surrounding, key=lambda v: (int(depths[v]), v)), dtype=np.int64)
    pos = 0
    history = [(0, state.fire_size, 0)]
    while not state.burning[queue].any():
        chosen = queue[pos:pos + state.budgets(state.round + 1)]
        pos += len(chosen)
        before = state.fire_size
        state = step(state, chosen)
        history.append((state.round, state.fire_size, state.protected_size))
        if state.fire_size == before:  # contained only if the whole set held
            return PlayResult(pos == len(queue), state.round, state.fire_size,
                              state.protected_size, "fire frozen", tuple(history))
    return PlayResult(False, state.round, state.fire_size, state.protected_size,
                      "fire reached the surrounding set", tuple(history))


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
    fire_size: int = -1      # final fire sizes; -1 when no cut qualified
    protected_size: int = -1


def _count_rule(gamma: float, N: int, k: int, budgets: BudgetSchedule,
                cut: Sequence[tuple[int, int, int]], free: int) -> ContainmentAttempt:
    """The greedy game's outcome from its surrounding set, one (d, c, f) per
    depth d that holds c > 0 of its vertices, ascending in d, where f counts
    the vertices not under the set at depths <= d and free all of them: the
    fire reaches depth d in round d-k, and the set holds while g_1 + ... +
    g_{d-k} covers it down to d.  The sum paid only grows between the set's
    depths, so it can first fall short at one of them."""
    if cut and cut[0][0] <= k:
        raise ValueError(f"cutset touches B({k})")
    paid = held = rounds = 0
    for d, c, f in cut:
        paid += sum(budgets(n) for n in range(rounds + 1, d - k + 1))
        rounds, held = d - k, held + c
        if held > paid:
            return ContainmentAttempt(gamma, False, N, "fire reached the surrounding set",
                                      f + held - paid, paid)
    return ContainmentAttempt(gamma, True, N, "fire frozen", free, held)


def _symmetric(source: TreeFamily | Tree) -> bool:
    """A family with branch depths: its min-cut is a whole level."""
    return isinstance(source, TreeFamily) and source.branches is not None


def _level_counts(family: TreeFamily, L: int) -> tuple[list[tuple[int, int, int]], int]:
    """_count_rule's counts for level L of a symmetric family as the set:
    2**b vertices, b the branch depths above it, and sum_j 2**j * n_j free
    vertices above it, n_j the length of the j-th run of levels between
    branch depths."""
    at = family.branches(L)
    runs = np.diff(np.concatenate(([0], at + 1, [L]))).tolist()
    free = sum(n << j for j, n in enumerate(runs))
    return [(L, 1 << len(at), free)], free


def attempt_containment(source: TreeFamily | Tree, k: int, gamma: float, K: float,
                        schedule: DepthSchedule) -> ContainmentAttempt:
    """Run the cut-based strategy for one rate gamma: at each scheduled
    depth, take the min-cut (a symmetric family's min-cut level, counted
    exactly; else on the one truncation at the deepest depth), and if it
    weighs less than the margin, which forces it outside B(k), decide the
    game with budgets floor(K * exp(n**gamma)) on its child endpoints.
    No qualifying cutset at any scheduled depth counts as failure."""
    eps = containment_margin(k, gamma)
    budgets = BudgetSchedule.exponential(K, gamma)
    depths = [N for N in schedule.depths if N > k + 1]
    symmetric = _symmetric(source)
    if not symmetric:
        tree = truncation(source, schedule.depths[-1])
        logw = ibn_log_weights(tree, gamma)
        depth = tree.depth_array()
    elif depths:
        cuts = classes.cut_levels(classes.of_family(source, depths), gamma)
    last = None
    for j, N in enumerate(depths):
        if symmetric:
            log_val, L = cuts[j]
        else:
            res = min_cut(tree, logw, N, want_cut=True)
            log_val = res.log_value
        if log_val >= math.log(eps):
            continue
        if symmetric:  # the set is level L, and every level above it is free
            counts = _level_counts(source, L)
        else:  # the cut's child endpoints; one sweep marks the vertices under them
            cut = np.bincount(res.cut, minlength=tree.n_vertices) > 0
            under = tree.sweep_down(np.logical_or, cut.copy(), cut, tree.height())
            held = np.bincount(depth[cut])
            free = np.cumsum(np.bincount(depth[~under], minlength=len(held)))
            at = np.flatnonzero(held)
            counts = (list(zip(at.tolist(), held[at].tolist(), free[at].tolist())),
                      int(free[-1]))
        last = _count_rule(gamma, N, k, budgets, *counts)
        if last.contained:
            return last
    if last is None:
        return ContainmentAttempt(gamma, False, None, f"no cutset below the containment "
                                  f"margin {eps:.3g} within the schedule")
    return replace(last, cut_depth=None, reason=f"greedy protection too slow: {last.reason}")


def lambda_c_estimate(source: TreeFamily | Tree, k: int, gamma_grid: Sequence[float],
                      K: float, schedule: DepthSchedule
                      ) -> tuple[BracketResult, dict[float, ContainmentAttempt]]:
    """Bracket the containment threshold over a gamma grid, with the attempt
    made at each gamma: a contained fire classifies gamma 'above' the
    threshold, an uncontained one 'below'."""
    gamma_grid = rate_grid(gamma_grid)
    if not _symmetric(source):
        source = truncation(source, schedule.depths[-1])
    attempts = {g: attempt_containment(source, k, g, K, schedule)
                for g in gamma_grid}
    classes = {g: "above" if a.contained else "below" for g, a in attempts.items()}
    return BracketResult(gamma_grid, classes), attempts
