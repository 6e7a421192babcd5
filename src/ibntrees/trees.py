"""Rooted trees as immutable parent and depth arrays, with cutset tests and
flow checks.

Vertices are integers 0..n-1; 0 is the root and a vertex's parent always
has a smaller id, so id order is topological.  An edge is identified with
its child endpoint (the edge into vertex v "is" v, and its depth is
depth(v)), so per-edge data lives in arrays indexed by vertex id with slot
0 unused.

A Tree is built in one call from its parent and depth arrays, which every
builder emits in bulk, and never changes afterwards.  The views the level
sweeps read -- height, per-level id arrays, sibling groups and CSR
children -- are computed once, on first use, and can be shared across
concurrent readers.  Every exact level recursion runs through sweep_down
(from the root) or sweep_up (towards it).
"""

from __future__ import annotations

import io
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_TEXT_CHUNK = 1 << 16  # rows formatted per string operation in to_text


def _nondecreasing(a: np.ndarray) -> bool:
    return bool((a[1:] >= a[:-1]).all())


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Tree:
    """Locally finite rooted tree stored as parent and depth arrays."""

    def __init__(self, parent: Sequence[int] | np.ndarray,
                 depth: Sequence[int] | np.ndarray) -> None:
        """The tree with parent[v] and depth[v] at every vertex v.

        Raises ValueError unless vertex 0 is the root (parent -1, depth 0)
        and depth[v] == depth[parent[v]] + 1 elsewhere, and KeyError unless
        0 <= parent[v] < v for every v >= 1.
        """
        parent = np.array(parent, dtype=np.int64)
        depth = np.array(depth, dtype=np.int64)
        if parent.ndim != 1 or parent.shape != depth.shape or len(parent) == 0:
            raise ValueError("parent and depth must be 1-d arrays of one nonzero length")
        if parent[0] != -1 or depth[0] != 0:
            raise ValueError("vertex 0 must be the root, with parent -1 and depth 0")
        p = parent[1:]
        bad = np.flatnonzero((p < 0) | (p >= np.arange(1, len(parent))))
        if len(bad):
            v = int(bad[0]) + 1
            raise KeyError(f"unknown parent id {parent[v]} for vertex {v}")
        bad = np.flatnonzero(depth[1:] != depth[p] + 1)
        if len(bad):
            raise ValueError(f"depth mismatch on vertex {int(bad[0]) + 1}")
        self._parent = _readonly(parent)
        self._depth = _readonly(depth)
        self._siblings: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # -- basic accessors ------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self._parent)

    def parent(self, v: int) -> int:
        return int(self._parent[v])

    def depth(self, v: int) -> int:
        return int(self._depth[v])

    def children(self, v: int) -> list[int]:
        kids, start, _ = self._csr
        return kids[start[v]:start[v + 1]].tolist()

    def parent_array(self) -> np.ndarray:
        return self._parent

    def depth_array(self) -> np.ndarray:
        return self._depth

    def n_children_array(self) -> np.ndarray:
        return self._csr[2]

    def height(self) -> int:
        return len(self._level_index[1]) - 2

    def level(self, k: int) -> np.ndarray:
        """Vertex ids at depth exactly k, ascending (empty if the tree is
        shallower)."""
        order, start = self._level_index
        if not 0 <= k <= self.height():
            return order[:0]
        return order[start[k]:start[k + 1]]

    def level_set(self, k: int) -> list[int]:
        """level(k) as a list."""
        return self.level(k).tolist()

    def level_sizes(self) -> np.ndarray:
        """#E_n for n = 0..height()."""
        return np.diff(self._level_index[1])

    def siblings(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Level k grouped by parent: (ids, segment starts, segment parents).

        Segment i, ids[starts[i]:starts[i+1]] (the last one runs to the
        end), holds every child of parents[i], ascending; parents ascend
        too.  np.<ufunc>.reduceat(values[ids], starts) reduces over each
        parent's children.
        """
        groups = self._siblings.get(k)
        if groups is None:
            ids = self.level(k)
            p = self._parent[ids]
            if not _nondecreasing(p):
                ids = ids[np.argsort(p, kind="stable")]
                p = self._parent[ids]
            starts = np.flatnonzero(np.diff(p, prepend=p[:1] - 1))
            groups = (_readonly(ids), _readonly(starts), _readonly(p[starts]))
            self._siblings[k] = groups
        return groups

    @cached_property
    def _level_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids sorted by depth, ascending within a depth; offsets, so
        level k is order[start[k]:start[k+1]])."""
        d = self._depth
        order = np.arange(len(d)) if _nondecreasing(d) else np.argsort(d, kind="stable")
        start = np.zeros(int(d.max()) + 2, dtype=np.int64)
        np.cumsum(np.bincount(d), out=start[1:])
        return _readonly(order), _readonly(start)

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(children grouped by parent, ascending; offsets, so the children
        of v are kids[start[v]:start[v+1]]; child counts)."""
        p = self._parent[1:]
        if _nondecreasing(p):
            kids = np.arange(1, len(self._parent))
        else:
            kids = np.argsort(p, kind="stable") + 1
        counts = np.bincount(p, minlength=len(self._parent))
        start = np.zeros(len(self._parent) + 1, dtype=np.int64)
        np.cumsum(counts, out=start[1:])
        return _readonly(kids), _readonly(start), _readonly(counts)

    # -- level sweeps ----------------------------------------------------

    def sweep_down(self, ufunc, out: np.ndarray, values: np.ndarray, N: int,
                   start: int = 1) -> np.ndarray:
        """out[v] = ufunc(out[parent(v)], values[v]) at depths start..N,
        top down and in place; every other entry stays.  Returns out."""
        par = self._parent
        for k in range(start, N + 1):
            lv = self.level(k)
            out[lv] = ufunc(out[par[lv]], values[lv])
        return out

    def sweep_up(self, out: np.ndarray, N: int, fold) -> np.ndarray:
        """out[parents] = fold(out[ids], ids, starts) over siblings(k) for
        k = N..1, in place: fold reduces each parent's children to one
        value.  The caller seeds depth N; only vertices above it with
        children are written.  Returns out."""
        for k in range(N, 0, -1):
            ids, starts, parents = self.siblings(k)
            out[parents] = fold(out[ids], ids, starts)
        return out

    # -- cutsets ----------------------------------------------------------

    def is_cutset(self, edges, frontier_depth: int) -> bool:
        """True iff every path from the root to a depth-`frontier_depth`
        vertex contains exactly one edge of `edges` (edges given as child
        endpoints)."""
        edges = list(edges)
        d = self.depth_array()
        if edges and frontier_depth < int(d[np.asarray(edges)].max()):
            raise ValueError("frontier_depth shallower than the cutset")
        frontier = d == frontier_depth
        if not frontier.any():
            return False
        member = np.zeros(self.n_vertices, dtype=np.int64)
        member[np.asarray(edges, dtype=np.int64)] = 1 if edges else 0
        hits = self.sweep_down(np.add, np.zeros(self.n_vertices, dtype=np.int64),
                               member, frontier_depth)  # cut edges on each root path
        return bool((hits[frontier] == 1).all())

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        """One line per vertex: `<id> <parent-id|-> <depth>`."""
        rows = np.stack([np.arange(self.n_vertices), self._parent, self._depth], axis=1)[1:]
        chunks = ["0 - 0\n"]
        for i in range(0, len(rows), _TEXT_CHUNK):  # bounds the Python ints alive at once
            block = rows[i:i + _TEXT_CHUNK].ravel().tolist()
            chunks.append(("%d %d %d\n" * (len(block) // 3)) % tuple(block))
        return "".join(chunks)

    @classmethod
    def from_text(cls, text: str) -> "Tree":
        """Parse to_text's format; blank lines are skipped."""
        root, _, rest = text.lstrip().partition("\n")
        if root.split() != ["0", "-", "0"]:
            raise ValueError("line 0 must be the root: '0 - 0'")
        rows = np.zeros((0, 3), dtype=np.int64)
        if rest.strip():
            try:
                with warnings.catch_warnings():
                    # numpy before 2.0 reads '1.5' as the integer 1 with this warning
                    warnings.simplefilter("error", DeprecationWarning)
                    rows = np.loadtxt(io.StringIO(rest, newline=None), dtype=np.int64,
                                      comments=None, ndmin=2)
            except (ValueError, DeprecationWarning) as exc:
                raise ValueError(f"malformed tree file below the root line: {exc}") from None
            if rows.shape[1] != 3:
                raise ValueError("tree file lines must be '<id> <parent-id|-> <depth>'")
        bad = np.flatnonzero(rows[:, 0] != np.arange(1, len(rows) + 1))
        if len(bad):
            raise ValueError(f"vertex ids must be consecutive from 0, got {rows[bad[0], 0]} "
                             f"on line {int(bad[0]) + 1}")
        return cls(np.concatenate(([-1], rows[:, 1])), np.concatenate(([0], rows[:, 2])))


@dataclass(frozen=True)
class FlowCheck:
    valid: bool
    strength: float
    reason: str | None = None


def check_flow(tree: Tree, theta: np.ndarray, cap: np.ndarray | None = None,
               rel_tol: float = 1e-9) -> FlowCheck:
    """Validate Kirchhoff conservation and (optionally) capacities.

    theta[v] is the flow on the edge into v (theta[0] is ignored).  At
    every non-root vertex with children the inflow must equal the summed
    outflow; vertices without children let the flow exit.  Returns the
    check result together with Strength = total outflow at the root.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (tree.n_vertices,):
        raise ValueError("theta must assign a value to every edge (slot per vertex)")
    if not np.isfinite(theta[1:]).all():
        raise ValueError("theta contains non-finite entries")
    par = tree.parent_array()
    outflow = np.zeros(tree.n_vertices)
    np.add.at(outflow, par[1:], theta[1:])
    strength = float(outflow[0])

    if (theta[1:] < -rel_tol).any():
        return FlowCheck(False, strength, "negative flow")
    internal = tree.n_children_array() > 0
    internal[0] = False
    err = np.abs(theta[internal] - outflow[internal])
    bound = rel_tol * np.maximum(1.0, np.abs(theta[internal]))
    if (err > bound).any():
        v = int(np.flatnonzero(internal)[np.argmax(err - bound)])
        return FlowCheck(False, strength, f"conservation violated at vertex {v}")
    if cap is not None:
        cap = np.asarray(cap, dtype=float)
        over = theta[1:] > cap[1:] + rel_tol * np.maximum(1.0, cap[1:])
        if over.any():
            v = int(np.flatnonzero(over)[0]) + 1
            return FlowCheck(False, strength, f"capacity exceeded on edge into {v}")
    return FlowCheck(True, strength, None)
