"""Rooted tree arena with depth bookkeeping, cutset tests and flow checks.

Vertices are integers 0..n-1 in construction order; 0 is the root and a
vertex's parent always has a smaller id, so id order is topological.  An
edge is identified with its child endpoint (the edge into vertex v "is" v,
and its depth is depth(v)), so per-edge data lives in arrays indexed by
vertex id with slot 0 unused.

A tree is built single-writer through add_child and treated as immutable
afterwards; derived arrays are cached on first use and can be shared
across concurrent readers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Tree:
    """Locally finite rooted tree stored as a parent arena."""

    def __init__(self) -> None:
        self._parent: list[int] = [-1]
        self._depth: list[int] = [0]
        self._children: list[list[int]] = [[]]
        self._cache: dict[str, object] = {}

    # -- construction ---------------------------------------------------

    def add_child(self, parent: int) -> int:
        """Append a new leaf under parent and return its id."""
        if not 0 <= parent < len(self._parent):
            raise KeyError(f"unknown parent id {parent}")
        v = len(self._parent)
        self._parent.append(parent)
        self._depth.append(self._depth[parent] + 1)
        self._children[parent].append(v)
        self._children.append([])
        self._cache.clear()
        return v

    # -- basic accessors ------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self._parent)

    def parent(self, v: int) -> int:
        return self._parent[v]

    def depth(self, v: int) -> int:
        return self._depth[v]

    def children(self, v: int) -> list[int]:
        return self._children[v]

    def parent_array(self) -> np.ndarray:
        a = self._cache.get("parent")
        if a is None:
            a = np.asarray(self._parent, dtype=np.int64)
            self._cache["parent"] = a
        return a

    def depth_array(self) -> np.ndarray:
        a = self._cache.get("depth")
        if a is None:
            a = np.asarray(self._depth, dtype=np.int64)
            self._cache["depth"] = a
        return a

    def n_children_array(self) -> np.ndarray:
        a = self._cache.get("nchildren")
        if a is None:
            a = np.asarray([len(c) for c in self._children], dtype=np.int64)
            self._cache["nchildren"] = a
        return a

    def height(self) -> int:
        return max(self._depth)

    def level_set(self, n: int) -> list[int]:
        """All vertex ids at depth exactly n (empty if the tree is shallower)."""
        levels = self._levels()
        return list(levels[n]) if n < len(levels) else []

    def level_sizes(self) -> np.ndarray:
        """#E_n for n = 0..height()."""
        return np.bincount(self.depth_array(), minlength=self.height() + 1)

    def _levels(self) -> list[np.ndarray]:
        lv = self._cache.get("levels")
        if lv is None:
            d = self.depth_array()
            order = np.argsort(d, kind="stable")
            bounds = np.searchsorted(d[order], np.arange(self.height() + 2))
            lv = [order[bounds[i]:bounds[i + 1]] for i in range(self.height() + 1)]
            self._cache["levels"] = lv
        return lv

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
        hits = np.zeros(self.n_vertices, dtype=np.int64)
        par = self.parent_array()
        # id order is topological, so one forward pass accumulates path counts
        for v in range(1, self.n_vertices):
            hits[v] = hits[par[v]] + member[v]
        return bool((hits[frontier] == 1).all())

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        """One line per vertex: `<id> <parent-id|-> <depth>`."""
        lines = []
        for v in range(self.n_vertices):
            p = "-" if v == 0 else str(self._parent[v])
            lines.append(f"{v} {p} {self._depth[v]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Tree":
        t = cls()
        for i, line in enumerate(s for s in text.splitlines() if s.strip()):
            ident, par, dep = line.split()
            if int(ident) != i:
                raise ValueError(f"vertex ids must be consecutive from 0, got {ident!r}")
            if i == 0:
                if par != "-" or int(dep) != 0:
                    raise ValueError("line 0 must be the root: '0 - 0'")
                continue
            v = t.add_child(int(par))
            if t.depth(v) != int(dep):
                raise ValueError(f"depth mismatch on vertex {v}")
        return t


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
