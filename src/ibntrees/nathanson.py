"""Nathanson's 2x2 matrix semigroup and its lexicographic minimal spanning tree.

The semigroup is generated by a = [[1,1],[0,1]] and b = [[1,0],[1,0]]
under multiplication.  Words over {a, b} are ordered length-first, then
lexicographically with b < a; the minimal words are prefix-closed and form
a spanning tree of the ball under the prefix relation, with vertex ids in
length-then-lex order.

Normal form.  b a^k b = (k+1) b, so a word a^i b a^(r_1) b ... b a^j with at
least one b is the matrix c * [[i+1, j(i+1)], [1, j]], where c is the
product of (r+1) over the middle runs; a^i is [[1,i],[0,1]], the one
element with a zero lower-left entry.  The matrix therefore fixes (c, i, j),
and the shortest word for it writes c as a product whose factors f = r+1
have the least sum: its prime factorization, since x + y <= xy for
x, y >= 2 with equality only at 2 * 2 = 4.  That tie and the order of the
factors go to the earlier b, so the minimal word takes nondecreasing
primes: a^i (b a^(p-1)) ... (b a^(q-1)) b a^j with primes
p <= ... <= q (`word_type`).  `lex_tree` builds the tree from this
automaton, one numpy level at a time.

`_ball` is the breadth-first search over the matrices themselves, exact
big integers deduped by the matrix, never a hash.  It is the oracle the
tests hold the automaton to, and `bfs_ball` and `ball_sizes` read the
matrices through it.

The tree supports a flow from the identity that is routed entirely into
the b-subtree and halves at every branch vertex; branches occur exactly
where a run of a's can be closed by b, which the normal form ties to prime
run lengths.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .generators import MemoryCapError
from .trees import Tree

Mat2 = tuple[int, int, int, int]  # row-major (m00, m01, m10, m11)

MAT_ID: Mat2 = (1, 0, 0, 1)
MAT_A: Mat2 = (1, 1, 0, 1)
MAT_B: Mat2 = (1, 0, 1, 0)
GEN = {"a": MAT_A, "b": MAT_B}

BALL_CAP = 2_000_000  # elements of a ball or tree, read by each check when it runs


def mat_mul(x: Mat2, y: Mat2) -> Mat2:
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def mat_of_word(word: str) -> Mat2:
    m = MAT_ID
    for ch in word:
        m = mat_mul(m, GEN[ch])
    return m


def _ball(n: int) -> tuple[dict[Mat2, int], array, bytearray, list[int]]:
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
            if len(parent) > BALL_CAP:
                raise MemoryCapError(f"ball exceeds {BALL_CAP} elements")
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


def bfs_ball(n: int) -> dict[Mat2, str]:
    """All semigroup elements of word length <= n with their minimal words
    (length first, then lexicographic with b < a).  Includes the identity
    as the empty word."""
    ids, parent, letters, _ = _ball(n)
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


def lex_tree(n: int) -> LexTree:
    """Spanning tree of the ball: parent of a word is its one-shorter prefix,
    and vertex ids are in length-then-lex order of the minimal words.

    Built one level at a time from each vertex's automaton state (see the
    module docstring), never from the matrices: run[v] is the number of a's
    since v's last b (-1 before the first b) and last[v] the last prime v
    closed (0 if none).  Every vertex has an a-child; it has a b-child, placed
    first, exactly when it has no b yet or run+1 is a prime >= last.
    Matches the BFS `_ball` vertex for vertex, letters included.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    prime = np.array([_is_prime(k) for k in range(n + 2)])
    parents, letters, sizes = [np.array([-1])], [np.array([ord("-")], dtype=np.uint8)], [1]
    run, last = np.array([-1]), np.array([0])
    first, total = 0, 1
    for _ in range(n):
        has_b = (run < 0) | (prime[run + 1] & (run + 1 >= last))
        counts = 1 + has_b
        size = int(counts.sum())
        total += size
        if total > BALL_CAP:
            raise MemoryCapError(f"ball exceeds {BALL_CAP} elements")
        is_b = np.zeros(size, dtype=bool)
        is_b[np.cumsum(counts)[has_b] - 2] = True
        parents.append(np.repeat(np.arange(first, first + len(run)), counts))
        letters.append(np.where(is_b, ord("b"), ord("a")).astype(np.uint8))
        first += len(run)
        run, last = np.repeat(run, counts), np.repeat(last, counts)
        run, last = (np.where(is_b, 0, run + (run >= 0)),
                     np.where(is_b, run + 1, last))
        sizes.append(size)
    depth = np.repeat(np.arange(n + 1), sizes)
    return LexTree(Tree(np.concatenate(parents), depth), np.concatenate(letters).tobytes())


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


def ball_sizes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(#B(m), #E_m) for m = 0..n.

    The ball counts semigroup elements (nonempty products), so the
    identity root of the spanning tree is excluded; with it, the radius-1
    ball would already overshoot the 2 m**(2 sqrt(m) + 2) bound.
    """
    level_ends = _ball(n)[3]
    level = np.diff(np.asarray(level_ends, dtype=np.int64), prepend=0)
    return np.cumsum(level) - 1, level


def theorem_bound_log(n: int) -> float:
    """log of the ball upper bound 2 n**(2 sqrt(n) + 2)."""
    return math.log(2.0) + (2.0 * math.sqrt(n) + 2.0) * math.log(n)
