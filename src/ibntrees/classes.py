"""Class tables: one sweep evaluates the deterministic quantities of a family.

The min-cut under exp(-|e|**lam), exact percolation survival and effective
conductance see a vertex only through its depth and the shape of its
truncated subtree, so vertices of equal (depth, shape) merge into a class.
A table holds per level its classes' children, as gather indices into the
next level's classes, and the depth segment their edges span: runs of
single-child depths collapse into one segment, and every frontier depth is
a level boundary.  _sweep runs once over the levels, deepest first, on
[class, column] arrays with one column per (rate, frontier), and reads a
segment in O(1): its min-cut capacity is its deepest edge's weight (the
weights fall with depth), survival passes the product of its opening
probabilities, resistance adds the sum of its edge resistances.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .generators import LOG2, TreeFamily, base_level_at_depth, check_elements, triangular

# Lattice floors at or above this take the closed-form child piece, which
# needs it to be at least 5 (see _three_one_gathers); the positions below
# it are placed by np.searchsorted.
EXACT_BELOW = 8
_POW3 = np.array([1, 3, 9, 27])  # 3**4 > 4 * EXACT_BELOW: a floor below it vanishes by then
_WIDTH = 4 * EXACT_BELOW + 1  # positions 0..4 * EXACT_BELOW in a table row
_SMALL_CHUNK = 32  # levels whose small positions are tabled and placed together
_LIMB_DIGITS = 39  # 3**39 < 2**63
_LIMB = 3 ** _LIMB_DIGITS
_R = np.arange(3)[:, None]
# _STEP[r, t, e] = sign(3e + r - t) - e: the child row of F_k + e is at + e + _STEP
_STEP = np.array([[[0, 0], [-1, 0], [-1, 0]], [[1, 0], [0, 0], [-1, 0]], [[1, 0], [1, 0], [0, 0]]])


@dataclass(frozen=True)
class ClassTable:
    """depths[k] is the depth of level k (depths[0] = 0), frontiers the
    depths asked for.  levels() yields idx for k = K-1, ..., 0: idx[r, c] is
    the row among level k+1's classes of class c's r-th child (-1: none),
    counted mult[k] times.  The min-cut and resistance folds scale level k
    by log_sizes[k], which absorbs the multiplicities: a symmetric
    truncation is swept as its level sums, each term rounded once."""

    depths: tuple[int, ...]
    frontiers: tuple[int, ...]
    mult: np.ndarray
    levels: Callable[[], Iterator[np.ndarray]]

    @cached_property
    def log_sizes(self) -> np.ndarray:
        return np.concatenate(([0.0], np.cumsum(np.log2(self.mult)))) * LOG2  # as level_log2_sizes

    @cached_property
    def ends(self) -> list[int]:
        """The distinct frontiers, deepest first: the sweep's column order."""
        return sorted(set(self.frontiers), reverse=True)

    @cached_property
    def order(self) -> list[int]:
        return [self.ends.index(f) for f in self.frontiers]


def _check_frontiers(frontiers: Sequence[int]) -> tuple[int, ...]:
    frontiers = tuple(int(f) for f in frontiers)
    if not frontiers or min(frontiers) < 1:
        raise ValueError(f"frontier depths must be >= 1, got {frontiers}")
    return frontiers


def from_degrees(degrees: np.ndarray, frontiers: Sequence[int]) -> ClassTable:
    """A spherically symmetric tree: one class per level, from its degrees."""
    frontiers = _check_frontiers(frontiers)
    D = max(frontiers)
    if len(degrees) < D:
        raise ValueError(f"need degrees for depths 0..{D - 1}, got {len(degrees)}")
    deg = np.asarray(degrees[:D])
    depths = sorted({0, *np.flatnonzero(deg > 1).tolist(), *frontiers})
    one = np.zeros((1, 1), dtype=np.int64)
    return ClassTable(tuple(depths), frontiers, deg[depths[:-1]].astype(float),
                      lambda: repeat(one, len(depths) - 1))


def from_log2_levels(log2_levels: Sequence[float], N: int) -> ClassTable:
    """from_degrees at the one frontier N, the degrees read off log2 #E_n."""
    return from_degrees(np.rint(np.exp2(np.diff(np.asarray(log2_levels, float)[:N + 1]))), (N,))


def _three_one_small(s, g, lo, hi, kb, n0: int, n1: int):
    """The small positions' gathers of base levels n0..n1-1, as
    _three_one_gathers yields them.  Level n's floors below 4 *
    EXACT_BELOW are s[a] // 3**(g[a] - n) for a in [lo[n], hi[n]), kb[n] -
    lo[n] + n of them at or above EXACT_BELOW.  A [level, position] table
    of the positions below 4 * EXACT_BELOW on levels n0..n1, read row by
    row, gives their keys (n - n0) * _WIDTH + position in order, and one
    search places each small position's children among its child level's.  Returns per level n0..n1-1 its count of small positions, and
    the gathers [r, small positions of the levels in turn]: rows of the
    child's first 4 * EXACT_BELOW + 1 positions, or of its thin class on
    levels n with 2**n <= 3 * EXACT_BELOW + 2, so int8."""
    M = len(s)
    n = np.arange(n0, n1 + 1)
    a = lo[n, None] + np.arange(int((hi[n] - lo[n]).max()))
    past = a >= hi[n, None]  # a vanished floor
    np.minimum(a, M - 1, out=a)
    e = np.minimum(np.maximum(g[a] - n[:, None], 0), len(_POW3) - 1)  # kept in range when past
    f = s[a] // _POW3[e]
    f[past] = 0
    level = np.arange(len(n))[:, None]
    present = np.zeros((len(n), _WIDTH), dtype=bool)
    present[:, :2] = True
    present[level, f] = True
    present[level, f + 1] = True
    if n1 == M:
        present[-1, 1:] = False  # the frontier's one position
    present &= np.arange(_WIDTH) < 1 << np.minimum(n - 1, 62)[:, None]  # thick states s < 2**(n-1)
    keys = np.flatnonzero(present)
    count = present.sum(axis=1)
    start = np.cumsum(count) - count
    n_small = count - 2 * (kb[n] - lo[n] + n)
    P = n_small + 2 * kb[n]

    level = keys // _WIDTH
    small = keys[(np.arange(len(keys)) - start[level] < n_small[level]) & (level < n1 - n0)]
    level = small // _WIDTH
    x = 3 * (small - level * _WIDTH) + _R
    idx = np.searchsorted(keys, (level + 1) * _WIDTH + x, side="right") - 1 - start[level + 1]
    thin = x >= 1 << np.minimum(level + n0, 62)  # a thin child, past 2**n
    return n_small[:-1].astype(np.int8), np.where(thin, P[level + 1], idx).astype(np.int8)


def _power_limbs(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2**a in base 3**_LIMB_DIGITS, lowest limb first, enough limbs for
    its first digits[a] base-3 digits: limb i of 2**a is table[first[a] +
    i]."""
    width = (digits + _LIMB_DIGITS - 1) // _LIMB_DIGITS
    first = np.cumsum(width) - width
    table = np.empty(int(width.sum()), dtype=np.int64)
    for a, (at, w) in enumerate(zip(first, width)):
        x, limbs = 1 << a, []
        for _ in range(w):
            x, r = divmod(x, _LIMB)
            limbs.append(r)
        table[at:at + w] = limbs
    return table, first


def _three_one_gathers(M: int):
    """Gather indices on the breakpoint lattice of the 3-1 tree's frontier M.

    Yields, for base levels n = M-1, ..., 1, an int64 array idx[r, p]: the
    row, among level n+1's positions followed by one thin row, of the piece
    that holds the child 3s + r of level n's p-th position s; the last
    column is the thin class's, its ray and two dead slots.  A thick vertex
    (n, s), s from the right edge of base level n, has children (n+1,
    3s+r), r < 3, thick iff 3s+r < 2**n; thin ones are rays.  Every swept
    quantity is piecewise constant in s, with breakpoints on the lattice
    {0, 1} and {F_k, F_k + 1 : k <= M - n} below 2**(n-1), F_k =
    floor(2**(n+k-1) / 3**k), which a shallower frontier shares in part.
    A level's positions are the small ones -- 0, 1 and F, F + 1 for its
    floors below EXACT_BELOW, sorted -- then F_k, F_k + 1 for its kb floors
    at or above it, k = kb..1.

    Two exact facts replace a big-integer divmod of every floor by 3 on
    every level.  Along a power, a = n+k-1, floor(2**a / 3**(k+1)) =
    floor(2**a / 3**k) // 3: one big division per a gives its first floor
    below 4 * EXACT_BELOW, on level a + 1 - k, and int64 division by 3 the
    later ones, each a level up; so every level's small floors and its kb
    come from M int64 values (_three_one_small).  And the child level's
    floors are F'_{k-1} = 3 F_k + t (F'_0 = 2**n), where t =
    floor(2**(n+k-1) / 3**(k-1)) mod 3 is base-3 digit k-1 of 2**(n+k-1):
    the digits of each 2**a are read off a table of its base-3**39 limbs,
    one digit per level.  The child of F_k + e is F'_{k-1} + o with o = 3e
    + r - t in [-2, 5].  For F_k >= 5 the child's positions next to
    F'_{k-1} and F'_{k-1} + 1 are at most F'_{k-1} - 2 and at least
    F'_{k-1} + 6 (or 2**n, the thin ones), so the child is in the piece
    before, at or after F'_{k-1} by the sign of o, with no search.
    """
    if M < 2:
        return
    levels = np.arange(M + 1)
    # s[a] = floor(2**a / 3**k0[a]), the first floor of 2**a below
    # 4 * EXACT_BELOW (k0 >= 1); it lies on level g[a] = a + 1 - k0[a]
    s, k0, k, p = np.empty(M, dtype=np.int64), np.empty(M, dtype=np.int64), 1, 3
    for a in range(M):
        x = 1 << a
        while x >= 4 * EXACT_BELOW * p:
            k, p = k + 1, 3 * p
        s[a], k0[a] = x // p, k
    g = levels[:M] + 1 - k0  # nondecreasing: k0 grows by at most 1 per a
    # kE[a] - 1 floors of 2**a are >= EXACT_BELOW; kb[n] counts the a in
    # [n, M) whose floor on level n is one of them, those with gE[a] < n
    kE = k0 + (s >= EXACT_BELOW) + (s >= 3 * EXACT_BELOW)
    kb = np.searchsorted(levels[:M] + 1 - kE, levels) - levels
    lo, hi = np.searchsorted(g, levels), np.searchsorted(g, levels + len(_POW3))
    chunks = [_three_one_small(s, g, lo, hi, kb, n0, min(n0 + _SMALL_CHUNK, M))
              for n0 in range(1, M, _SMALL_CHUNK)]
    n_small = np.concatenate([c[0] for c in chunks])  # n_small[n - 1] for level n
    small = np.concatenate([c[1] for c in chunks], axis=1)
    del levels, s, k0, g, lo, hi, chunks
    table, first = _power_limbs(kE - 1)  # the digits of the floors >= EXACT_BELOW
    del kE
    cur = np.zeros(M, dtype=np.int64)  # per a, the limb being read, shifted down to digit a - n
    ramp = np.arange(2 * int(kb.max()) + EXACT_BELOW + 3)  # P <= EXACT_BELOW + 1 + 2 kb

    child_small, child_kb, child_P, at_small = 1, 0, 1, small.shape[1]
    for n in range(M - 1, 0, -1):
        ns, nb = int(n_small[n - 1]), int(kb[n])
        P = ns + 2 * nb
        idx = np.empty((3, P + 1), dtype=np.int64)
        at_small -= ns
        idx[:, :ns] = small[:, at_small:at_small + ns]
        if nb:
            # digit a - n of 2**a for a = n..n+kb-1; a limb's read starts
            # on the level where a - n is a multiple of _LIMB_DIGITS
            a, starts = slice(n, n + nb), slice(n, n + nb, _LIMB_DIGITS)
            cur[starts] = table[first[starts] + ramp[:(nb + _LIMB_DIGITS - 1) // _LIMB_DIGITS]]
            t = cur[a] % 3  # for k = 1..kb
            cur[a] //= 3
            # F_k + e for k = kb..1: its child F'_{k-1} + o lies in the piece
            # at row at = child_small + 2 (child_kb + 1 - k), or the one
            # before or after it by the sign of o
            at = child_small + 2 * (child_kb + 1 - nb)
            _STEP.take(t[::-1], axis=1, out=idx[:, ns:P].reshape(3, nb, 2), mode="clip")
            idx[:, ns:P] += ramp[at:at + 2 * nb]
            np.minimum(idx[:, P - 2:P], child_P, out=idx[:, P - 2:P])  # past F'_0 = 2**n: thin
        idx[0, P] = child_P
        idx[1:, P] = -1
        yield idx
        child_small, child_kb, child_P = ns, nb, P


def three_one(frontiers: Sequence[int]) -> ClassTable:
    """The stretched 3-1 tree: per base level its lattice positions and one
    thin class, the rays; base level M at the deepest frontier, and a
    frontier inside a path a level of single children."""
    frontiers = _check_frontiers(frontiers)
    M = base_level_at_depth(max(frontiers))
    check_elements(M * M, "the 3-1 breakpoint lattice")  # the gathers' work grows as M**2
    base = [triangular(n) for n in range(M)]
    depths = sorted({*base, *frontiers})

    def levels():
        rows, child = 2, len(depths) - 1  # the frontier: position 0 and the thin class
        gathers = _three_one_gathers(M)
        for n in range(M - 1, -1, -1):
            at = bisect_left(depths, base[n])
            yield from repeat(np.arange(rows)[None], child - 1 - at)  # frontiers inside paths
            if n == 0:
                yield np.array([[rows - 1], [0]])  # the root: a ray and position 0
            else:
                idx = next(gathers)
                yield idx
                rows = idx.shape[1]
            child = at

    return ClassTable(tuple(depths), frontiers, np.ones(len(depths) - 1), levels)


def of_family(family: TreeFamily, frontiers: Sequence[int]) -> ClassTable:
    """A family's class table: from its degrees, else the 3-1 lattice."""
    if family.degrees is None:
        return three_one(frontiers)
    return from_degrees(family.degrees(max(_check_frontiers(frontiers))), frontiers)


# -- the sweep ------------------------------------------------------------------

class _Fold(NamedTuple):
    frontier: float  # a frontier class's value
    dead: float      # what a missing child passes up its edge
    node: Callable   # (child edge values [r, class, column], mult[k]) -> class values;
                     # only survival reads mult, the scaled folds have it in log_sizes
    edge: Callable   # (class values, segment quantity, out) -> edge values


def _log_sum(g: np.ndarray, mult: float) -> np.ndarray:
    """log sum over r of exp(g[r]) for one, two or three children; three
    with the maximum pulled out, in place."""
    if len(g) < 3:
        return g[0] if len(g) == 1 else np.logaddexp(g[0], g[1])
    hi = np.maximum(g[0], g[1])
    np.maximum(hi, g[2], out=hi)
    g -= hi
    np.exp(g, out=g)
    v = g[0] + g[1]
    v += g[2]
    np.log(v, out=v)
    v += hi
    return v


_MIN_CUT = _Fold(np.inf, -np.inf, _log_sum, np.minimum)
# 1 - prod over children (1 - q)**mult, q the chance a child's edges are open and it survives
_SURVIVAL = _Fold(1.0, 0.0, lambda q, mult: 0.0 - np.expm1(mult * np.log1p(-q).sum(axis=0)),
                  np.multiply)
# the branches' log resistances in parallel
_RESISTANCE = _Fold(-np.inf, np.inf, lambda r, mult: -np.logaddexp.reduce(-r, axis=0),
                    np.logaddexp)


def _sweep(table: ClassTable, fold: _Fold, seg: np.ndarray) -> np.ndarray:
    """The root's value in every column, an array [rate, frontier].  seg[k,
    j, i] is rate i's quantity for the segment of edges into level k, for
    the j-th of table.ends (or for all, if seg has one).  The live columns
    are a prefix: a frontier's columns join at its level, where every class
    has the frontier's value."""
    joins = iter(bisect_left(table.depths, f) for f in table.ends)
    L = seg.shape[2]
    seg = np.broadcast_to(seg, (len(seg), len(table.ends), L)).reshape(len(seg), -1)
    vals, live, at = None, 0, next(joins)
    for k, idx in zip(range(len(table.depths) - 2, -1, -1), table.levels()):
        if k + 1 == at:
            grown = np.empty((len(vals) if live else int(idx.max()) + 2, live + L))
            if live:
                grown[:, :live] = vals
            grown[:, live:] = fold.edge(fold.frontier, seg[k + 1, live:live + L])
            grown[-1, live:] = fold.dead
            vals, live, at = grown, live + L, next(joins, -1)
        v = fold.node(vals[idx], table.mult[k])
        if k == 0:
            return v[0].reshape(len(table.ends), L)[table.order].T
        vals = np.empty((len(v) + 1, live))
        fold.edge(v, seg[k, :live], out=vals[:-1])
        vals[-1] = fold.dead


def _capacities(table: ClassTable, lams: Sequence[float]) -> np.ndarray:
    """[level, 1, rate]: log exp(-t**lam) at each level's depth t, by
    Python's float power, scaled by the level's log size."""
    cap = [[-(float(t) ** lam) for t in table.depths] for lam in map(float, lams)]
    return np.reshape(cap, (len(lams), 1, len(table.depths))).T + table.log_sizes[:, None, None]


def log_min_cut(table: ClassTable, lams: Sequence[float]) -> np.ndarray:
    """Log min-cut of every truncation under exp(-|e|**lam), [rate, frontier]."""
    return _sweep(table, _MIN_CUT, _capacities(table, lams))


def cut_levels(table: ClassTable, lam: float) -> list[tuple[float, int]]:
    """(log min-cut, depth of the cut) at every frontier of a table with one
    class per level, under exp(-|e|**lam).  Its sweep takes the running
    minimum of the scaled capacities from the frontier up, so the cut is
    their first minimum: the shallowest level that weighs no more than the
    cut below it, as min_cut's search takes it."""
    cap = _capacities(table, (lam,))[:, 0, 0]
    cut = [1 + int(np.argmin(cap[1:table.depths.index(f) + 1])) for f in table.frontiers]
    return [(float(cap[k]), table.depths[k]) for k in cut]


def _segments(table: ClassTable, per_depth: np.ndarray, reduce) -> np.ndarray:
    """reduce over each level's segment of per_depth, an array over depths
    1..D; entry 0 is unused."""
    return np.concatenate(([0.0], reduce(per_depth[:table.depths[-1]], table.depths[:-1])))


def survival(table: ClassTable, log_p: Iterable[np.ndarray]) -> np.ndarray:
    """P[root <-> frontier] of every truncation, [rate, frontier]; log_p
    holds, per rate, the log opening probability at depths 1..D."""
    seg = [[np.exp(_segments(table, lp, np.add.reduceat))] for lp in log_p]
    return _sweep(table, _SURVIVAL, np.transpose(seg))


def log_conductance(table: ClassTable, log_c: Iterable[np.ndarray]) -> np.ndarray:
    """Log effective conductance from the root to the frontier of every
    truncation, [rate, frontier]; log_c holds, per rate, the log conductance
    of the edges at depths 1..D.  A column carries its log resistances
    relative to its largest edge resistance H (about 540 at lam = 0.9,
    depth 1024), so the level sums lose no digits to it."""
    seg, H = [], []
    for lc in log_c:
        r = -np.asarray(lc, dtype=float)
        H.append(np.maximum.accumulate(r)[np.subtract(table.ends, 1)])
        seg.append([_segments(table, r - h, np.logaddexp.reduceat) - table.log_sizes
                    for h in H[-1]])
    return -(_sweep(table, _RESISTANCE, np.transpose(seg)) + np.array(H)[:, table.order])
