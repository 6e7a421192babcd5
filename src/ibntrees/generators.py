"""Constructions of the example trees as depth-N truncations.

All generators return finite truncations; asymptotic quantities are always
taken along a schedule of increasing depths.  Spherically symmetric trees
are described by a degree sequence (every depth-n vertex has degree(n)
children).  Lexicographic minimal spanning trees of semigroups are
sub-periodic -- each subtree embeds into the tree near the root -- which
is why they appear among the examples, but sub-periodicity itself is never
computed here.

Families bundle a generator with the cheap level-size arithmetic that the
estimators use when a truncation is too large to materialize.  route() and
truncation() are the one place that decides how a source -- an explicit
Tree or a family -- is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .trees import Tree

DEFAULT_VERTEX_CAP = 5_000_000

LOG2 = math.log(2.0)


class MemoryCapError(RuntimeError):
    """Raised when a requested truncation would exceed the vertex cap."""


def sequence_degree(n: int) -> int:
    """The 1,2,1,1,2,1,1,1,2,... rule: 2 exactly at n = k + k(k+1)/2, k >= 1.

    Runs of 1s between consecutive 2s grow by one each time.  Depth 0 (the
    root) has a single child.
    """
    if n == 0:
        return 1
    # n = k(k+3)/2 for integer k >= 1  <=>  k = (sqrt(8n+9) - 3)/2 is integral
    k = (math.isqrt(8 * n + 9) - 3) // 2
    for kk in (k, k + 1):
        if kk >= 1 and kk * (kk + 3) == 2 * n:
            return 2
    return 1


def sequence_level_sizes(N: int) -> list[int]:
    """Exact #E_n for n = 0..N of the sequence tree (arbitrary precision)."""
    sizes = [1]
    for n in range(N):
        sizes.append(sizes[-1] * sequence_degree(n))
    return sizes


def spherically_symmetric(degree: Callable[[int], int], N: int,
                          max_vertices: int = DEFAULT_VERTEX_CAP) -> Tree:
    """Tree where every depth-n vertex has degree(n) children, to depth N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    degrees, total, width = [], 1, 1
    for n in range(N):
        d = int(degree(n))
        if d < 1:
            raise ValueError(f"degree {d} < 1 at depth {n}")
        width *= d
        total += width
        if total > max_vertices:
            raise MemoryCapError(
                f"truncation needs ~{total} vertices at depth {n + 1} (cap {max_vertices})")
        degrees.append(d)
    # ids run level by level; the i-th vertex of level k hangs below the
    # (i // degree(k-1))-th vertex of level k-1
    widths = np.cumprod([1] + degrees)
    first = np.concatenate(([0], np.cumsum(widths)))
    depth = np.repeat(np.arange(N + 1), widths)
    k = depth[1:]
    offset = np.arange(1, total) - first[k]
    parent = first[k - 1] + offset // np.asarray(degrees, dtype=np.int64)[k - 1]
    return Tree(np.concatenate(([-1], parent)), depth)


def from_branch_marks(marks: Sequence[bool], N: int) -> Tree:
    """Spherically symmetric tree: depth-n vertices have 2 children iff marks[n]."""
    if len(marks) < N:
        raise ValueError("marks must be defined up to depth N")
    return spherically_symmetric(lambda n: 2 if marks[n] else 1, N)


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


def three_one_stretched(N: int, max_vertices: int = DEFAULT_VERTEX_CAP) -> Tree:
    """Stretched 3-1 tree truncated at depth N.

    Base tree: level n holds 2**n vertices indexed left to right; vertex i
    has one child when i < 2**(n-1) and three children otherwise (the root
    has two), children assigned to parents in index order.  Each base edge
    into level n is then replaced by a path of n edges, so base level n
    sits at depth n(n+1)/2.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    est = sum((2 ** j) * j for j in range(1, base_level_at_depth(N) + 1))
    if est > max_vertices:
        raise MemoryCapError(f"stretched truncation needs ~{est} vertices (cap {max_vertices})")

    # Paths into base level j leave base level j-1 (depth D(j-1)) in order,
    # fanout[i] of them from its i-th vertex; each path's vertices take
    # consecutive ids, top first, and the last base level's paths stop at N.
    parent, depth = [np.array([-1])], [np.array([0])]
    n = 1
    base = np.array([0])      # vertex ids of the current base level, left to right
    fanout = np.array([2])    # paths leaving each of them
    for j in range(1, base_level_at_depth(N) + 1):
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


def three_one_level_log2_sizes(N: int) -> np.ndarray:
    """log2 #E_d for d = 0..N of the stretched 3-1 tree: 2**j on the paths
    into base level j."""
    out = np.zeros(N + 1)
    for d in range(1, N + 1):
        out[d] = base_level_at_depth(d)
    return out


# -- tree families ---------------------------------------------------------

@dataclass
class TreeFamily:
    """A named tree construction plus its cheap level-size arithmetic.

    degree is set for spherically symmetric families and enables the exact
    level-recursion engines; families without it must be materialized.
    """

    name: str
    builder: Callable[[int], Tree]
    log2_levels: Callable[[int], np.ndarray]
    degree: Callable[[int], int] | None = None

    def build(self, N: int) -> Tree:
        return self.builder(N)

    def level_log2_sizes(self, N: int) -> np.ndarray:
        """log2 #E_n for n = 0..N."""
        return self.log2_levels(N)


def _symmetric_log2_levels(degree: Callable[[int], int], N: int) -> np.ndarray:
    out = np.zeros(N + 1)
    for n in range(1, N + 1):
        out[n] = out[n - 1] + math.log2(degree(n - 1))
    return out


def symmetric_family(name: str, degree: Callable[[int], int]) -> TreeFamily:
    return TreeFamily(
        name=name,
        builder=lambda N: spherically_symmetric(degree, N),
        log2_levels=lambda N: _symmetric_log2_levels(degree, N),
        degree=degree,
    )


def sequence_family() -> TreeFamily:
    return symmetric_family("seq", sequence_degree)


def binary_family() -> TreeFamily:
    return symmetric_family("binary", lambda n: 2)


def path_family() -> TreeFamily:
    return symmetric_family("path", lambda n: 1)


def marks_family(marks: Sequence[bool], name: str = "marks") -> TreeFamily:
    marks = list(marks)

    def degree(n: int) -> int:
        return 2 if n < len(marks) and marks[n] else 1

    return symmetric_family(name, degree)


def three_one_family() -> TreeFamily:
    return TreeFamily(
        name="three-one",
        builder=three_one_stretched,
        log2_levels=three_one_level_log2_sizes,
        degree=None,
    )


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


# -- evaluation routes -----------------------------------------------------

def route(source: TreeFamily | Tree) -> str:
    """How the estimators evaluate a source.

    "symmetric": a family with a degree rule, evaluated from level sizes;
    "three-one": the stretched 3-1 family, whose min-cut has a structured
    DP (its other quantities still sweep materialized truncations);
    "tree": an explicit Tree, or any other family, swept level by level on
    truncation(source, N).
    """
    if isinstance(source, Tree):
        return "tree"
    if source.degree is not None:
        return "symmetric"
    if source.name == "three-one":
        return "three-one"
    return "tree"


def truncation(source: TreeFamily | Tree, N: int) -> Tree:
    """The depth-N truncation of a family; an explicit Tree as it is.

    An explicit Tree is not checked against N here: every level sweep
    raises on a tree shallower than its depth.
    """
    if isinstance(source, Tree):
        return source
    return source.build(N)
