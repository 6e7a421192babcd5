"""Rooted trees as immutable parent and depth arrays, with flow checks.

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
(from the root) or sweep_up (towards it), and each sweep checks that the
tree reaches its depth N, so its callers do not.  shape_classes hash-conses
the vertices by the shape of their truncated subtree, level by level from
depth N up, for the class tables (classes.of_tree).
"""

from __future__ import annotations

import io
import re
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import length_hint

import numpy as np

_TEXT_CHUNK = 1 << 12  # rows formatted per write in write_text
_READ_CHUNK = 1 << 13  # lines parsed per np.loadtxt call in read_text
_FLOW_TOL = 1e-9  # relative tolerance of every check_flow test
# shape_classes codes a level's child-class rows as int64 below _CODE_LIMIT
# and deduplicates up to _TABLE_CODES codes by a lookup table, more by
# np.unique.  It hash-conses a level of fewer children than _SMALL_LEVEL,
# or of wider rows, in Python: numpy keeps the freed buffers of its arrays
# under 1 KiB for reuse, and a numpy pass over the small levels near the
# root left a hundred such buffers, of as many sizes, across the heap,
# where they kept its freed pages resident
_TABLE_CODES = 1 << 16
_CODE_LIMIT = 1 << 62
_SMALL_LEVEL = 128


def _nondecreasing(a: np.ndarray) -> bool:
    return bool((a[1:] >= a[:-1]).all())


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _parse_rows(first: str, lines, line: int) -> np.ndarray:
    """The [row, 3] int64 array of the chunk of _READ_CHUNK lines `<id>
    <parent-id> <depth>` that starts with first, file line `line`, and goes
    on in lines (fewer at the file's end); blank lines are skipped."""
    left = repeat(True, _READ_CHUNK - 1)  # counts down as numpy takes lines
    try:
        with warnings.catch_warnings():
            # numpy before 2.0 reads '1.5' as the integer 1 with this warning
            warnings.simplefilter("error", DeprecationWarning)
            # max_rows, at least the rows of a chunk, lets loadtxt size its
            # buffer once: growing it chunk after chunk scattered the heap;
            # that it counts rows, not the blank lines, cannot matter here
            warnings.filterwarnings("ignore", "Input line [0-9]+ contained no data", UserWarning)
            # the lead row makes every line with other than three fields an error
            rows = np.loadtxt(chain(("0 0 0\n", first), compress(islice(lines, _READ_CHUNK - 1), left)),
                              dtype=np.int64, comments=None, ndmin=2, max_rows=_READ_CHUNK + 1)
    except (ValueError, DeprecationWarning) as exc:
        # numpy takes one line at a time and stops on the bad one; its
        # row counts neither blank lines nor earlier chunks
        bad = line + _READ_CHUNK - 1 - length_hint(left)
        msg, found = re.subn(r"at row [0-9]+", f"at line {bad}", str(exc).partition(";")[0])
        raise ValueError("malformed tree file below the root line: "
                         + (msg if found else f"{msg} at line {bad}")) from None
    return rows[1:]


def _text_rows(*columns: np.ndarray, sep: str = " ") -> str:
    """The lines of columns of nonnegative integers, each number followed
    by sep and the last of a line by a newline.  Every number gets a row of
    one uint8 matrix, its digits right aligned in the width of the largest
    number and its separator after them; the digits are written least
    significant first, one column per pass, and one boolean mask drops the
    leading zeros."""
    x = np.stack(columns, axis=1).ravel()  # the numbers in file order
    w = len(str(int(x.max())))
    if w < 10:
        x = x.astype(np.uint32)  # numpy divides uint32 several times faster than int64
    digits = np.empty((len(x), w + 1), dtype=np.uint8)
    keep = np.empty((len(x), w + 1), dtype=bool)
    digits[:, w] = ord(sep)
    digits[len(columns) - 1::len(columns), w] = ord("\n")
    keep[:, w - 1:] = True  # the last digit, 0 too, and the separator
    for k in range(w - 1, -1, -1):
        q = x // 10
        x -= 10 * q
        x += ord("0")
        digits[:, k] = x
        x = q
        if k:
            np.greater(x, 0, out=keep[:, k - 1])  # the number has a digit left of k
    return digits[keep].tobytes().decode("ascii")


def _place(level: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The positions of ids in level: level ascends strictly, and ids holds
    values of level in any order, repeats allowed."""
    if level[-1] - level[0] == len(level) - 1:  # one run of ids
        return ids - level[0]
    if len(ids) == len(level) and (ids[1:] > ids[:-1]).all():  # all of level, in order
        return np.arange(len(ids))
    return np.searchsorted(level, ids)


def _numpy_classes(child: np.ndarray, starts: np.ndarray, at: np.ndarray, n: int,
                   n_cls: int) -> tuple[np.ndarray, np.ndarray] | None:
    """One level of Tree.shape_classes: (its gathers, the class of each of
    the n vertices above it), or None if its rows are too wide for one
    int64.  child holds the children's classes in sibling order, starts
    each sibling group's first child and at the position of its parent
    among the n.  A parent's row, its child classes ascending, is coded as
    one int64 in base n_cls + 1, digit r its r-th class + 1 (0 pads); the
    codes are deduplicated by a lookup table up to _TABLE_CODES of them,
    else by np.unique, and numbered in order.  A level of single children
    codes each parent's row as its child's class + 1 directly."""
    codes, base = np.zeros(n, dtype=np.int64), n_cls + 1
    if len(starts) == len(child):
        width, power = 1, np.ones(1, dtype=np.int64)
        codes[at] = child + 1
    else:
        group = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(child)))
        rank = np.arange(len(child)) - starts[group]
        width = int(rank.max()) + 1
        if base ** width > _CODE_LIMIT:
            return None
        key = group * n_cls + child
        if not _nondecreasing(key):
            key.sort()  # each group's child classes ascending
        power = base ** np.arange(width, dtype=np.int64)
        codes[at] = np.add.reduceat((key - (group * n_cls - 1)) * power[rank], starts)
    if base ** width > _TABLE_CODES:
        uniq, cls = np.unique(codes, return_inverse=True)
    else:
        seen = np.zeros(base ** width, dtype=bool)
        seen[codes] = True
        uniq, cls = np.flatnonzero(seen), np.cumsum(seen) - 1
        cls = cls[codes]
    return uniq // power[:, None] % base - 1, cls.reshape(-1)


def _python_classes(child: list, starts: list, at: list, n: int,
                    n_cls: int) -> tuple[np.ndarray, np.ndarray]:
    """_numpy_classes in Python, for a level of few children or of wide
    rows: the same codes, as Python integers, and the same numbers."""
    rows = [()] * n
    for p, a, b in zip(at, starts, [*starts[1:], len(child)]):
        rows[p] = tuple(sorted(child[a:b]))
    base = n_cls + 1
    codes = [sum((c + 1) * base ** r for r, c in enumerate(row)) for row in rows]
    first = dict(sorted(zip(codes, rows)))  # code -> row, in code order
    idx = np.full((max(map(len, rows)), len(first)), -1, dtype=np.int64)
    for j, row in enumerate(first.values()):
        idx[:len(row), j] = row
    rank = {code: j for j, code in enumerate(first)}
    return idx, np.array([rank[code] for code in codes], dtype=np.int64)


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

    def check_depth(self, N: int) -> None:
        """ValueError unless 1 <= N <= height(), which every sweep checks."""
        if not 1 <= N <= self.height():
            raise ValueError(f"tree must reach depth N={N}")

    def sweep_down(self, ufunc, out: np.ndarray, values: np.ndarray, N: int,
                   start: int = 1) -> np.ndarray:
        """out[v] = ufunc(out[parent(v)], values[v]) at depths start..N,
        top down and in place; every other entry stays.  Returns out."""
        self.check_depth(N)
        par = self._parent
        for k in range(start, N + 1):
            lv = self.level(k)
            out[lv] = ufunc(out[par[lv]], values[lv])
        return out

    def sweep_up(self, N: int, dead, frontier, fold) -> np.ndarray:
        """out = frontier at depth N and dead elsewhere, then out[parents] =
        fold(out[ids], ids, starts) over siblings(k) for k = N..1: fold
        reduces each parent's children to one value.  Returns out."""
        self.check_depth(N)
        out = np.full(self.n_vertices, dead)
        out[self.level(N)] = frontier
        for k in range(N, 0, -1):
            ids, starts, parents = self.siblings(k)
            out[parents] = fold(out[ids], ids, starts)
        return out

    def shape_classes(self, N: int) -> list[np.ndarray]:
        """The vertices at depths 0..N hash-consed by the shape of their
        subtree truncated at depth N, from N up: every depth-N vertex is
        one class, and above it a vertex's class is the sorted multiset of
        its children's classes (a childless vertex's the empty one),
        deduplicated per level and numbered in the order of its code
        (_numpy_classes).  Returns, for k = N-1, ..., 0, idx[r, c]: the
        row among level k+1's classes of class c's r-th child, ascending
        (-1: none)."""
        self.check_depth(N)
        for k in range(1, N + 1):  # the cached groups first, so that the loop's
            self.siblings(k)       # scratch arrays, freed, do not sit below them
        gathers = []
        below = self.level(N)
        cls, n_cls = np.zeros(len(below), dtype=np.int64), 1
        for k in range(N, 0, -1):
            ids, starts, parents = self.siblings(k)
            above = self.level(k - 1)
            child, at = cls[_place(below, ids)], _place(above, parents)
            sizes = (len(above), n_cls)
            if len(ids) < _SMALL_LEVEL or (level := _numpy_classes(child, starts, at, *sizes)) is None:
                level = _python_classes(child.tolist(), starts.tolist(), at.tolist(), *sizes)
            idx, cls = level
            gathers.append(idx)
            below, n_cls = above, idx.shape[1]
        return gathers

    # -- serialization ----------------------------------------------------

    def write_text(self, fh) -> None:
        """Write one line per vertex, `<id> <parent-id|-> <depth>`, to the
        open text file fh: each chunk of _TEXT_CHUNK rows is formatted by
        numpy in one uint8 buffer, decoded once and written with one call."""
        fh.write("0 - 0\n")
        n = self.n_vertices
        for i in range(1, n, _TEXT_CHUNK):  # bounds the buffers alive at once
            j = min(i + _TEXT_CHUNK, n)
            fh.write(_text_rows(np.arange(i, j), self._parent[i:j], self._depth[i:j]))

    def to_text(self) -> str:
        """write_text's lines as one string."""
        buf = io.StringIO()
        self.write_text(buf)
        return buf.getvalue()

    @classmethod
    def read_text(cls, fh) -> "Tree":
        """Parse write_text's format from the open text file fh, _READ_CHUNK
        lines at a time, into parent and depth arrays grown in place, so
        neither the whole file's text nor all its rows are held at once;
        blank lines are skipped, and counted in the line number a malformed
        line's error names."""
        lines = iter(fh)
        line, root = next(((i, s) for i, s in enumerate(lines, 1) if s.strip()), (0, None))
        if root is None:
            raise ValueError("the tree file is empty: it has no root line '0 - 0'")
        if root.split() != ["0", "-", "0"]:
            raise ValueError(f"line {line} must be the root: '0 - 0'")
        parent, depth, n = np.array([-1], dtype=np.int64), np.array([0], dtype=np.int64), 1
        # a chunk ends after _READ_CHUNK lines, blank ones too, or at the end of fh
        while (first := next(lines, None)) is not None:
            rows = _parse_rows(first, lines, line + 1)
            line += _READ_CHUNK
            bad = np.flatnonzero(rows[:, 0] != np.arange(n, n + len(rows)))
            if len(bad):
                raise ValueError(f"vertex ids must be consecutive from 0: expected vertex id "
                                 f"{n + int(bad[0])}, got {rows[bad[0], 0]}")
            end = n + len(rows)
            if end > len(parent):  # grown by realloc
                parent.resize(2 * end, refcheck=False)
                depth.resize(2 * end, refcheck=False)
            parent[n:end], depth[n:end], n = rows[:, 1], rows[:, 2], end
        return cls(parent[:n], depth[:n])  # copied, so the spare capacity goes with these

    @classmethod
    def from_text(cls, text: str) -> "Tree":
        """read_text on a string."""
        return cls.read_text(io.StringIO(text, newline=None))


@dataclass(frozen=True)
class FlowCheck:
    valid: bool
    strength: float
    reason: str | None = None


def check_flow(tree: Tree, theta: np.ndarray, cap: np.ndarray | None = None) -> FlowCheck:
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

    if (theta[1:] < -_FLOW_TOL).any():
        return FlowCheck(False, strength, "negative flow")
    internal = tree.n_children_array() > 0
    internal[0] = False
    err = np.abs(theta[internal] - outflow[internal])
    bound = _FLOW_TOL * np.maximum(1.0, np.abs(theta[internal]))
    if (err > bound).any():
        v = int(np.flatnonzero(internal)[np.argmax(err - bound)])
        return FlowCheck(False, strength, f"conservation violated at vertex {v}")
    if cap is not None:
        cap = np.asarray(cap, dtype=float)
        over = theta[1:] > cap[1:] + _FLOW_TOL * np.maximum(1.0, cap[1:])
        if over.any():
            v = int(np.flatnonzero(over)[0]) + 1
            return FlowCheck(False, strength, f"capacity exceeded on edge into {v}")
    return FlowCheck(True, strength, None)
