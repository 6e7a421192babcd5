"""Nathanson's 2x2 matrix semigroup and its lexicographic minimal spanning tree.

The semigroup is generated by a = [[1,1],[0,1]] and b = [[1,0],[1,0]]
under multiplication.  Words over {a, b} are ordered length-first, then
lexicographically with b < a; breadth-first search that extends by b
before a therefore reaches every element through its minimal word, in
that order, and those words form a spanning tree under the prefix
relation.  One BFS emits the tree directly: each element records the
frontier element it extended (its parent vertex) and the last letter, so
vertex ids are the length-then-lex order, and words are rebuilt from the
letters only on demand.  Matrix entries are exact big integers: deduping
is by the matrix itself, never a hash truncation.

The tree supports a flow from the identity that is routed entirely into
the b-subtree and halves at every branch vertex; branches occur exactly
where a run of a's can be closed by b, which the minimal-word structure
ties to prime run lengths.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .trees import Tree

Mat2 = tuple[int, int, int, int]  # row-major (m00, m01, m10, m11)

MAT_ID: Mat2 = (1, 0, 0, 1)
MAT_A: Mat2 = (1, 1, 0, 1)
MAT_B: Mat2 = (1, 0, 1, 0)
GEN = {"a": MAT_A, "b": MAT_B}


class BallCapError(RuntimeError):
    """Raised when a requested ball exceeds the element cap."""


def mat_mul(x: Mat2, y: Mat2) -> Mat2:
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def mat_of_word(word: str) -> Mat2:
    m = MAT_ID
    for ch in word:
        m = mat_mul(m, GEN[ch])
    return m


def _ball(n: int, max_elements: int) -> tuple[dict[Mat2, int], array, bytearray, list[int]]:
    """One BFS of the ball of radius n: (ids, parent, letters, level_ends).

    Vertex ids are discovery order.  The frontier stays in lexicographic
    order (b < a) and each element is extended by b before a, so discovery
    order is length-then-lex order and the first word reaching a matrix is
    its minimal one; ids[m] is the vertex of matrix m.  Vertex v > 0 is its
    parent's word followed by letters[v], so the parent's word is the
    one-shorter prefix of v's minimal word and is itself minimal.  Level
    k >= 1 is the id range [level_ends[k-1], level_ends[k]); level 0 is the
    root, id 0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    ids: dict[Mat2, int] = {MAT_ID: 0}
    parent = array("q", [-1])
    letters = bytearray(b"-")
    level_ends = [1]
    frontier = [MAT_ID]
    b, a = ord("b"), ord("a")
    for _ in range(n):
        first = len(parent) - len(frontier)
        nxt: list[Mat2] = []
        for v, (m00, m01, m10, m11) in enumerate(frontier, first):
            s0, s1 = m00 + m01, m10 + m11
            # m*B then m*A, for B = [[1,0],[1,0]] and A = [[1,1],[0,1]]
            for letter, m2 in ((b, (s0, 0, s1, 0)), (a, (m00, s0, m10, s1))):
                if m2 not in ids:
                    ids[m2] = len(parent)
                    parent.append(v)
                    letters.append(letter)
                    nxt.append(m2)
            if len(parent) > max_elements:
                raise BallCapError(f"ball exceeds {max_elements} elements")
        frontier = nxt
        level_ends.append(len(parent))
    return ids, parent, letters, level_ends


def _words(parent: Sequence[int], letters: bytes) -> tuple[str, ...]:
    """Minimal word of every vertex, rebuilt from parent ids and last letters."""
    text = letters.decode("ascii")
    words = [""]
    for v in range(1, len(parent)):
        words.append(words[parent[v]] + text[v])
    return tuple(words)


def bfs_ball(n: int, max_elements: int = 2_000_000) -> dict[Mat2, str]:
    """All semigroup elements of word length <= n with their minimal words
    (length first, then lexicographic with b < a).  Includes the identity
    as the empty word."""
    ids, parent, letters, _ = _ball(n, max_elements)
    words = _words(parent, letters)
    return {m: words[v] for m, v in ids.items()}


@dataclass(frozen=True)
class LexTree:
    tree: Tree
    letters: bytes  # letters[v] is the last letter of vertex v's minimal word (root: '-')

    @cached_property
    def words(self) -> tuple[str, ...]:
        """words[v] is the minimal word of vertex v."""
        return _words(self.tree.parent_array().tolist(), self.letters)

    def word_index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.words)}


def lex_tree(n: int, max_elements: int = 2_000_000) -> LexTree:
    """Spanning tree of the ball: parent of a word is its one-shorter prefix,
    and vertex ids are in length-then-lex order of the minimal words."""
    ids, parent, letters, level_ends = _ball(n, max_elements)
    del ids  # the matrices are not needed for the tree; free them before building it
    depth = np.repeat(np.arange(n + 1), np.diff(level_ends, prepend=0))
    return LexTree(Tree(np.frombuffer(parent, dtype=np.int64), depth), bytes(letters))


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def word_type(word: str) -> int | None:
    """Classify a word: 1 = a^n, 2 = a^i b a^j, 3 = prime-block form
    a^i (b a^{p-1})...(b a^{q-1}) b a^j with nondecreasing prime run
    lengths p <= ... <= q.  None if no form matches."""
    if word == "":
        return None
    runs = [len(r) for r in word.split("b")]
    nb = len(runs) - 1
    if nb == 0:
        return 1
    if nb == 1:
        return 2
    middle = [r + 1 for r in runs[1:-1]]
    if all(_is_prime(m) for m in middle) and all(x <= y for x, y in zip(middle, middle[1:])):
        return 3
    return None


def prime_flow(lt: LexTree, c: float) -> np.ndarray:
    """Unit-source flow: c into the b-subtree, nothing into the a-child,
    split equally at every branch vertex below b.

    Returns theta (per edge, indexed by child vertex).  With c small the
    flow respects the capacities exp(-|e|**lam) for lam < 1/2 because the
    number of halvings along a ray grows like sqrt(depth)/log(depth).
    """
    if c <= 0:
        raise ValueError("c must be positive")
    t = lt.tree
    theta = np.zeros(t.n_vertices)
    lv1 = t.level(1)
    theta[lv1[np.frombuffer(lt.letters, dtype=np.uint8)[lv1] == ord("b")]] = c
    # each vertex gets its parent's flow over the parent's child count
    return t.sweep_down(np.divide, theta, t.n_children_array()[t.parent_array()],
                        t.height(), start=2)


def ball_sizes(n: int, max_elements: int = 2_000_000) -> tuple[np.ndarray, np.ndarray]:
    """(#B(m), #E_m) for m = 0..n.

    The ball counts semigroup elements (nonempty products), so the
    identity root of the spanning tree is excluded; with it, the radius-1
    ball would already overshoot the 2 m**(2 sqrt(m) + 2) bound.
    """
    level_ends = _ball(n, max_elements)[3]
    level = np.diff(np.asarray(level_ends, dtype=np.int64), prepend=0)
    return np.cumsum(level) - 1, level


def theorem_bound_log(n: int) -> float:
    """log of the ball upper bound 2 n**(2 sqrt(n) + 2)."""
    return math.log(2.0) + (2.0 * math.sqrt(n) + 2.0) * math.log(n)


def fitted_lower_constant(ball: np.ndarray, n_min: int = 8) -> float:
    """Largest c with #B(m) >= 2**(c sqrt(m)/log m) on every m >= n_min."""
    cs = []
    for m in range(n_min, len(ball)):
        if ball[m] > 1:
            cs.append(math.log2(float(ball[m])) * math.log(m) / math.sqrt(m))
    if not cs:
        raise ValueError("ball too small to fit")
    return min(cs)
