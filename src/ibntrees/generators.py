"""Constructions of the example trees as depth-N truncations.

All generators return finite truncations; asymptotic quantities are always
taken along a schedule of increasing depths.  A spherically symmetric
family is the list of depths where it branches: every vertex at a branch
depth has two children, every other vertex one, so #E_n is 2 to the number
of branch depths below n, and log2 #E_n that count.  Its degree array,
degrees[n] children below every depth-n vertex for n = 0..N-1, is a view
of the branch depths for the tree builder and the depth chain.
Lexicographic minimal spanning trees of semigroups are sub-periodic -- each
subtree embeds into the tree near the root -- which is why they appear
among the examples, but sub-periodicity itself is never computed here.

A family is a name plus its branch depths (None for the stretched 3-1
tree); it builds truncations and reads its level sizes, a range of depths
at a time, from a step function (LevelReader).  A source is an explicit
Tree or a family, whose class table (classes.py) stands in for a
truncation too large to materialize; the estimators test which one they
were given, and truncation() materializes either.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .trees import Tree

DEFAULT_VERTEX_CAP = 5_000_000  # vertices and array elements, read by each check when it runs

LOG2 = math.log(2.0)


class MemoryCapError(RuntimeError):
    """Raised when a requested truncation, array or semigroup ball would
    exceed its cap."""


def check_elements(n: int, what: str) -> None:
    """Raise MemoryCapError up front when an array of n elements would
    exceed DEFAULT_VERTEX_CAP, the element cap of every array a request
    sizes."""
    if n > DEFAULT_VERTEX_CAP:
        raise MemoryCapError(f"{what} would hold {n} elements (cap {DEFAULT_VERTEX_CAP})")


def sequence_branches(N: int) -> np.ndarray:
    """Depths below N where the sequence tree branches: 2, 5, 9, 14, ...

    k + k(k+1)/2 = k(k+3)/2 for k >= 1, so the runs of single children
    between consecutive branch depths grow by one each time.
    """
    k = np.arange(1, math.isqrt(2 * N) + 2)
    at = k * (k + 3) // 2
    return at[at < N]


def level_sizes(degrees: np.ndarray) -> list[int]:
    """Exact #E_n for n = 0..len(degrees) of the spherically symmetric tree
    with these child counts (arbitrary precision)."""
    return list(accumulate(np.asarray(degrees).tolist(), operator.mul, initial=1))


def spherically_symmetric(degrees: np.ndarray, N: int) -> Tree:
    """Tree where every depth-n vertex has degrees[n] children, to depth N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if len(degrees) < N:
        raise ValueError(f"need degrees for depths 0..{N - 1}, got {len(degrees)}")
    degrees = np.asarray(degrees[:N], dtype=np.int64)
    if (degrees < 1).any():
        n = int(np.argmax(degrees < 1))
        raise ValueError(f"degree {degrees[n]} < 1 at depth {n}")
    # float widths are exact integers up to the first total above the cap
    total = 1.0 + np.cumsum(np.cumprod(degrees.astype(float)))
    if total[-1] > DEFAULT_VERTEX_CAP:
        n = int(np.argmax(total > DEFAULT_VERTEX_CAP))
        raise MemoryCapError(f"truncation needs ~{int(total[n])} vertices at depth {n + 1} "
                             f"(cap {DEFAULT_VERTEX_CAP})")
    # ids run level by level; the i-th vertex of level k hangs below the
    # (i // degrees[k-1])-th vertex of level k-1
    widths = np.cumprod(np.concatenate(([1], degrees)))
    first = np.concatenate(([0], np.cumsum(widths)))
    depth = np.repeat(np.arange(N + 1), widths)
    k = depth[1:]
    offset = np.arange(1, int(total[-1])) - first[k]
    parent = first[k - 1] + offset // degrees[k - 1]
    return Tree(np.concatenate(([-1], parent)), depth)


# -- the stretched 3-1 tree ---------------------------------------------

def triangular(j: int) -> int:
    """Stretched depth of base level j: D(j) = 1 + 2 + ... + j."""
    return j * (j + 1) // 2


def base_level_at_depth(d: int) -> int:
    """Smallest j with D(j) >= d; vertex paths into base level j span
    stretched depths D(j-1)+1 .. D(j)."""
    j = int((math.isqrt(8 * d + 1) - 1) // 2)
    while triangular(j) < d:
        j += 1
    return j


def three_one_stretched(N: int) -> Tree:
    """Stretched 3-1 tree truncated at depth N.

    Base tree: level n holds 2**n vertices indexed left to right; vertex i
    has one child when i < 2**(n-1) and three children otherwise (the root
    has two), children assigned to parents in index order.  Each base edge
    into level n is then replaced by a path of n edges, so base level n
    sits at depth n(n+1)/2.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    J = base_level_at_depth(N)
    est = (J - 1) * 2 ** (J + 1) + 2  # sum of j * 2**j over j = 1..J
    if est > DEFAULT_VERTEX_CAP:  # est may have too many digits to print
        raise MemoryCapError(f"stretched truncation to depth {N} needs ~2**{math.log2(est):.1f} "
                             f"vertices (cap {DEFAULT_VERTEX_CAP})")

    # Paths into base level j leave base level j-1 (depth D(j-1)) in order,
    # fanout[i] of them from its i-th vertex; each path's vertices take
    # consecutive ids, top first, and the last base level's paths stop at N.
    parent, depth = [np.array([-1])], [np.array([0])]
    n = 1
    base = np.array([0])      # vertex ids of the current base level, left to right
    fanout = np.array([2])    # paths leaving each of them
    for j in range(1, J + 1):
        top = triangular(j - 1)
        length = min(j, N - top)
        tops = np.repeat(base, fanout)
        ids = np.arange(n, n + len(tops) * length).reshape(len(tops), length)
        par = ids - 1
        par[:, 0] = tops
        parent.append(par.ravel())
        depth.append(np.tile(np.arange(top + 1, top + length + 1), len(tops)))
        n += ids.size
        base = ids[:, -1]
        fanout = np.repeat([1, 3], len(base) // 2)  # left half thin, right half thick
    return Tree(np.concatenate(parent), np.concatenate(depth))


def three_one_levels(N: int) -> LevelReader:
    """log2 #E_d of the stretched 3-1 tree to depth N: step j is 2**j on the
    j depths T(j-1)+1..T(j) of the paths into base level j."""
    check_elements(N, "the 3-1 level-size table")
    j = np.arange(base_level_at_depth(N) + 1)
    bounds = np.append(j * (j - 1) // 2 + 1, N + 1)
    bounds[0] = 0  # the root
    return LevelReader(bounds, j.astype(float))


# -- tree families ---------------------------------------------------------

@dataclass(frozen=True)
class LevelReader:
    """log2 #E_n for n = 0..N of a depth-N truncation as a step function,
    values[i] on the depths bounds[i] <= n < bounds[i + 1], from bounds[0]
    = 0 to bounds[-1] = N + 1, read a range of depths at a time."""

    bounds: np.ndarray  # int64, ascending
    values: np.ndarray  # float64, one per step

    @property
    def N(self) -> int:
        return int(self.bounds[-1]) - 1

    def __call__(self, a: int, b: int) -> np.ndarray:
        """log2 #E_n for a <= n < b, 0 <= a < b <= N + 1: one np.repeat of
        the steps that meet the range, the first and the last cut to it."""
        if not 0 <= a < b <= self.N + 1:
            raise ValueError(f"depths {a}..{b - 1} are not a range in 0..{self.N}")
        i = int(np.searchsorted(self.bounds, a, side="right")) - 1
        k = int(np.searchsorted(self.bounds, b, side="left"))
        lengths = np.diff(self.bounds[i:k + 1])
        lengths[0] -= a - self.bounds[i]
        lengths[-1] -= self.bounds[k] - b
        return np.repeat(self.values[i:k], lengths)


@dataclass(frozen=True)
class TreeFamily:
    """A named tree construction plus its cheap level-size arithmetic.

    branches(N) gives the ascending depths below N whose vertices have two
    children in a spherically symmetric family, every other vertex one;
    branches is None only for the stretched 3-1 tree.  degrees(N) is the
    per-depth view of them for the builder and the depth chain, and
    level_reader(N) holds one level size per branch depth.  Each raises
    MemoryCapError up front when a degree array to depth N would exceed
    DEFAULT_VERTEX_CAP, whether or not it builds one.
    """

    name: str
    branches: Callable[[int], np.ndarray] | None = None

    def degrees(self, N: int) -> np.ndarray:
        """Child counts at depths 0..N-1: 2 at the branch depths, else 1."""
        check_elements(N, "the degree array")
        out = np.ones(N, dtype=np.int64)
        out[self.branches(N)] = 2
        return out

    def build(self, N: int) -> Tree:
        if self.branches is None:
            return three_one_stretched(N)
        return spherically_symmetric(self.degrees(N), N)

    def level_reader(self, N: int) -> LevelReader:
        """log2 #E_n for n = 0..N.  A symmetric family's steps start one
        below each branch depth, with the count of branch depths above:
        cumsum(log2(degrees)) bit for bit, as log2 2 = 1.0 and log2 1 =
        0.0."""
        if self.branches is None:
            return three_one_levels(N)
        check_elements(N, "the degree array")
        at = self.branches(N)
        return LevelReader(np.concatenate(([0], at + 1, [N + 1])),
                           np.arange(len(at) + 1, dtype=float))

    def level_log2_sizes(self, N: int) -> np.ndarray:
        """log2 #E_n for n = 0..N: level_reader(N) read at every depth."""
        return self.level_reader(N)(0, N + 1)


def sequence_family() -> TreeFamily:
    return TreeFamily("seq", sequence_branches)


def binary_family() -> TreeFamily:
    return TreeFamily("binary", np.arange)


def path_family() -> TreeFamily:
    return TreeFamily("path", lambda N: np.arange(0))


def marks_family(marks: Sequence[bool]) -> TreeFamily:
    """Depth-n vertices have 2 children iff marks[n]; 1 past the marks."""
    at = np.flatnonzero(marks)
    return TreeFamily("marks", lambda N: at[:np.searchsorted(at, N)])


def three_one_family() -> TreeFamily:
    return TreeFamily("three-one")


def family_by_name(name: str, marks: Sequence[bool] | None = None) -> TreeFamily:
    table = {
        "seq": sequence_family,
        "binary": binary_family,
        "path": path_family,
        "three-one": three_one_family,
    }
    if name == "marks":
        if marks is None:
            raise ValueError("family 'marks' needs a marks vector")
        return marks_family(marks)
    if name not in table:
        raise ValueError(f"unknown family {name!r}")
    return table[name]()


# -- truncations ----------------------------------------------------------

def truncation(source: TreeFamily | Tree, N: int) -> Tree:
    """The depth-N truncation of a family; an explicit Tree as it is.

    An explicit Tree is not checked against N here: Tree.sweep_down and
    Tree.sweep_up raise on a tree shallower than their depth.
    """
    if isinstance(source, Tree):
        return source
    return source.build(N)
