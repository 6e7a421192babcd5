"""The first Grigorchuk group: action, word problem, inverted orbits.

The four generators act on binary strings through the wreath recursion
a = swap<1,1>, b = <a,c>, c = <a,d>, d = <1,b>, written once in
act_on_string.  Points of the orbit of 1^infinity are stored as the finite
prefix where they may differ from all-ones (trailing 1s trimmed); a point
acts as the string prefix + "1", since b, c and d fix the all-ones tail.
Words act on the right: x . (gh) = (x . g) . h.

Everything downstream of a word -- inverted orbit, loop erasure, branch
marks -- follows the incremental law O(w g) = {x0 g} union O(w) g, on one
frozenset of prefixes; the word search applies it to a whole beam at once,
each orbit a row of a bool matrix over integer point ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, product

import numpy as np

from . import rng
from .generators import MemoryCapError, check_elements

GENERATORS = "abcd"

POINT_BUDGET = 4096  # point prefix letters, read by act_point when it runs

# sections (on 0, on 1) of the non-rotating generators; None = identity
SECTIONS = {"b": ("a", "c"), "c": ("a", "d"), "d": (None, "b")}


# -- action on finite strings (exhaustive checks) ----------------------------

def act_on_string(letter: str, s: str) -> str:
    """Image of the depth-len(s) string s under one generator."""
    if letter == "a":
        return ("1" if s[0] == "0" else "0") + s[1:] if s else s
    g, i = letter, 0
    s = list(s)
    while g is not None and g != "a" and i < len(s):
        if s[i] == "0":
            g = SECTIONS[g][0]
            if g == "a" and i + 1 < len(s):
                s[i + 1] = "1" if s[i + 1] == "0" else "0"
            g = None
        else:
            g = SECTIONS[g][1]
            i += 1
    return "".join(s)


def act_word_on_string(word: str, s: str) -> str:
    for ch in word:
        s = act_on_string(ch, s)
    return s


def verify_relations(depth: int) -> bool:
    """Check a^2=b^2=c^2=d^2=1 and bc=cb=d, bd=db=c, cd=dc=b as
    permutations of {0,1}^depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    strings = ["".join(bits) for bits in product("01", repeat=depth)]

    def image(word: str) -> list[str]:
        return [act_word_on_string(word, s) for s in strings]

    ident = list(strings)
    for g in GENERATORS:
        if image(g + g) != ident:
            return False
    for x, y, z in (("b", "c", "d"), ("b", "d", "c"), ("c", "d", "b")):
        if image(x + y) != image(z) or image(y + x) != image(z):
            return False
    return True


# -- action on ray points -----------------------------------------------------

def act_point(letter: str, prefix: str) -> str:
    """Image of the point prefix·111... under one generator, canonical form.

    The image is act_on_string on prefix + "1" with trailing 1s trimmed; it
    is at most one letter longer than the prefix (the first tail 1 flipped
    to 0).  An image longer than POINT_BUDGET + 1 letters raises
    MemoryCapError rather than being truncated.
    """
    image = act_on_string(letter, prefix + "1").rstrip("1")
    if len(image) > POINT_BUDGET + 1:
        raise MemoryCapError(f"point prefix exceeds {POINT_BUDGET + 1} letters")
    return image


# -- word problem -------------------------------------------------------------

_THIRD = {frozenset("bc"): "d", frozenset("bd"): "c", frozenset("cd"): "b"}


def reduce_word(word: str) -> str:
    """Collapse xx -> 1 and xy -> z inside {b,c,d} until the word alternates."""
    out: list[str] = []
    for ch in word:
        if ch not in GENERATORS:
            raise ValueError(f"bad generator {ch!r}")
        while True:
            if not out:
                out.append(ch)
                break
            t = out[-1]
            if t == ch:
                out.pop()
                break
            if t != "a" and ch != "a":
                out.pop()
                ch = _THIRD[frozenset((t, ch))]
                continue
            out.append(ch)
            break
    return "".join(out)


def wreath_sections(word: str) -> tuple[bool, str, str]:
    """(root swap, section on subtree 0, section on subtree 1) of the word."""
    swapped = False
    w0: list[str] = []
    w1: list[str] = []
    for ch in word:
        if ch == "a":
            swapped = not swapped
            continue
        s0, s1 = SECTIONS[ch]
        if swapped:
            s0, s1 = s1, s0
        if s0 is not None:
            w0.append(s0)
        if s1 is not None:
            w1.append(s1)
    return swapped, "".join(w0), "".join(w1)


@lru_cache(maxsize=1 << 20)
def _trivial_reduced(word: str) -> bool:
    if len(word) <= 2:
        return not word
    swapped, w0, w1 = wreath_sections(word)
    if swapped:
        return False
    return _trivial_reduced(reduce_word(w0)) and _trivial_reduced(reduce_word(w1))


def is_trivial(word: str) -> bool:
    """Word problem via the contracting wreath recursion.

    Reduce, check the root permutation, split into the two level-1
    sections and recurse; sections strictly shorten, and every nonempty
    reduced word of length <= 2 acts nontrivially at depth 3.
    """
    return _trivial_reduced(reduce_word(word))


# -- inverted orbits -----------------------------------------------------------

X0 = ""  # canonical prefix of the all-ones ray point

# Memo of act_point per generator, prefix -> image, read and filled through
# _image: each image is computed once.  search_word acts only on the points
# of its live orbits and x0, 452 entries in all over search_word(512, 64).
# A point whose image raises MemoryCapError is never stored and raises
# again on every call.
_IMAGES: dict[str, dict[str, str]] = {ch: {} for ch in GENERATORS}


def _image(ch: str, p: str) -> str:
    """act_point(ch, p) through the memo."""
    image = _IMAGES[ch]
    if p not in image:
        image[p] = act_point(ch, p)
    return image[p]


def _orbit_step(orbit: frozenset[str], ch: str) -> frozenset[str]:
    """O(w ch) = {x0 ch} union O(w) ch, from O(w)."""
    return frozenset(_image(ch, p) for p in orbit | {X0})


def inverted_orbit(word: str) -> frozenset[str]:
    """O(g_1..g_l) = {x0 g_l, x0 g_{l-1} g_l, ..., x0 g_1..g_l}; the empty
    word gives {x0}."""
    return reduce(_orbit_step, word, frozenset({X0}))


def orbit_sizes(word: str) -> np.ndarray:
    """sizes[l] = #O(g_1..g_l) for every prefix, sizes[0] = 1."""
    orbits = accumulate(word, _orbit_step, initial=frozenset({X0}))
    return np.array([len(o) for o in orbits], dtype=np.int64)


# -- loop erasure ---------------------------------------------------------------

def _erase_pass(word: str) -> str:
    """One left-to-right pass: at each letter, delete the longest trivial
    segment starting there over which the inverted-orbit size stays flat
    and go on after it; a letter that starts no such segment is kept."""
    sizes = orbit_sizes(word).tolist()
    out = []
    i = 0   # segment word[i:j] spans the orbit sizes sizes[i..j]
    while i < len(word):
        # orbit sizes are nondecreasing: the flat stretch is contiguous
        end = i
        while end < len(word) and sizes[end + 1] == sizes[i]:
            end += 1
        j = next((j for j in range(end, i + 1, -1) if is_trivial(word[i:j])), None)
        if j is None:
            out.append(word[i])
            i += 1
        else:
            i = j
    return "".join(out)


def loop_erase(word: str) -> str:
    """Delete every trivial segment whose span leaves the inverted-orbit
    size flat, in order of appearance, until none remains.

    Erasing such a loop provably changes no prefix orbit, so passes are
    repeated on the shortened word until a fixpoint: concatenation seams
    can expose new flat trivial segments.  In the result, every trivial
    segment grows the orbit by at least one.
    """
    while True:
        erased = _erase_pass(word)
        if erased == word:
            return word
        word = erased


# -- word search -----------------------------------------------------------------

def _first_rows(rows: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row of a
    2-D bool array, as np.unique(rows, axis=0, return_index=True) finds them.

    Each row is packed into ceil(width / 64) uint64 words; one stable
    lexsort over the words puts equal rows next to each other in their
    original order, so a row that differs from the one before it in sorted
    order is the first of its kind.  The first word is the primary key: the
    last one holds the zero padding and ties more often.
    """
    packed = np.packbits(rows, axis=1)
    keys = np.zeros((len(rows), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    keys[:, :packed.shape[1]] = packed
    keys = keys.view(np.uint64)
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return np.sort(order[new])


def search_word(n: int, beam: int = 256, seed: int = 0) -> str:
    """A length-n word with large inverted orbit.

    States are deduplicated by their orbit set (the future depends on
    nothing else), which makes the search exhaustive whenever the state
    count stays within the beam.

    Each point met gets an id; moves[k, i] is the id of point i under
    generator k, read through _image for live points and x0 only.  States are
    rows of a bool matrix over the live points.  One scatter extends them
    all (row 4 s + k is state s then generator k), its columns the point ids
    it reaches, renumbered through a bool table over all ids.  Repeated rows
    are dropped keeping the first, the order a dict of orbit sets would
    keep, by one sort of the rows packed into uint64 words (_first_rows).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = rng.stream_rng(seed, rng.SEARCH_STREAM)
    points, ids = [X0], {X0: 0}
    moves = np.full((len(GENERATORS), 1), -1)
    cols = np.zeros(1, dtype=np.int64)   # point id of each matrix column
    orbits = np.ones((1, 1), dtype=bool)
    words = [""]
    for _ in range(n):
        domain = np.concatenate([[0], cols[cols > 0]])   # live points and x0
        if moves.shape[1] < len(points) + 4 * len(domain):
            moves = np.pad(moves, ((0, 0), (0, len(points) + 4 * len(domain))),
                           constant_values=-1)
        ks, js = np.nonzero(moves[:, domain] < 0)
        for k, i in zip(ks.tolist(), domain[js].tolist()):
            q = _image(GENERATORS[k], points[i])
            moves[k, i] = ids.setdefault(q, len(points))
            if moves[k, i] == len(points):
                points.append(q)
        image = np.concatenate([moves[:, cols].ravel(), moves[:, 0]])
        seen = np.zeros(len(points), dtype=bool)
        seen[image] = True
        new_cols, local = np.flatnonzero(seen), (np.cumsum(seen) - 1)[image]
        S, C, P = len(words), len(cols), len(new_cols)
        check_elements(4 * S * P, "the word search")
        nxt = np.zeros((S, 4, P), dtype=bool)
        nxt[:, np.arange(4)[:, None], local[:4 * C].reshape(4, C)] = orbits[:, None, :]
        nxt[:, np.arange(4), local[4 * C:]] = True
        nxt = nxt.reshape(4 * S, P)
        first = _first_rows(nxt)
        kept = nxt[first]
        if len(first) > beam:
            order = gen.permutation(len(first))
            best = np.lexsort((order, -np.count_nonzero(kept, axis=1)))[:beam]
            first, kept = first[best], kept[best]
        live = kept.any(axis=0)
        orbits, cols = kept[:, live], new_cols[live]
        words = [words[r >> 2] + GENERATORS[r & 3] for r in first.tolist()]
    return words[int(np.count_nonzero(orbits, axis=1).argmax())]


# -- branch marks and the embedded spherically symmetric tree --------------------

@dataclass(frozen=True)
class BranchMarks:
    """Positions along a loop-erased word where the inverted orbit grows.

    The first position is marked by convention; the cumulative mark count
    at l equals #O(q_1..q_l).  Walking the word and inserting a two-way
    lamp choice right after each marked letter yields a spherically
    symmetric tree whose level sizes are powers of two.
    """

    sizes: np.ndarray   # orbit size per prefix length, sizes[0] = 1
    marks: np.ndarray   # marks[l] for letter l >= 1; slot 0 unused

    @property
    def word_length(self) -> int:
        return len(self.sizes) - 1

    def mark_positions(self) -> np.ndarray:
        """M_i = position of the i-th mark (M_1 = 1)."""
        return np.flatnonzero(self.marks)

    def Lambda(self, n: int) -> int:
        """Largest l >= 1 with l + sizes[l] <= n (0 if none)."""
        l = np.arange(1, len(self.sizes))
        ok = l + self.sizes[1:] <= n
        return int(l[ok][-1]) if ok.any() else 0

    def star_positions(self) -> np.ndarray:
        """Graph distances at which the lamp choice sits: M_i + i."""
        m = self.mark_positions()
        return m + np.arange(1, len(m) + 1)

    def tree_marks(self, N: int) -> np.ndarray:
        """Depth-indexed branching flags for marks_family: depth d
        splits in two iff distance d+1 carries a lamp choice."""
        stars = self.star_positions()
        out = np.zeros(N, dtype=bool)
        inside = stars[stars <= N]
        out[inside - 1] = True
        return out

    def max_tree_depth(self) -> int:
        """Deepest level the finite word supports: L + sizes[L]."""
        L = self.word_length
        return int(L + self.sizes[L])


def branch_marks(word: str) -> BranchMarks:
    sizes = orbit_sizes(word)
    marks = np.zeros(len(word) + 1, dtype=bool)
    if len(word) >= 1:
        marks[1] = True
        marks[2:] = sizes[2:] > sizes[1:-1]
    return BranchMarks(sizes=sizes, marks=marks)


# -- growth constants --------------------------------------------------------------

def eta_root(tol: float = 1e-12) -> float:
    """Real root of X^3 + X^2 + X - 2 by bisection on (0, 1)."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if mid ** 3 + mid ** 2 + mid - 2.0 < 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def orbit_growth_exponent() -> float:
    """log 2 / log(2/eta) with eta the real root above (about 0.7674)."""
    return math.log(2.0) / math.log(2.0 / eta_root())


def orbit_exponent_estimate(lengths, beam: int = 64, seed: int = 0):
    """Least-squares slope of log #O(w_n) against log n over searched words.

    Returns (slope, residual, points); the searched words need not attain
    the extremal growth, so the slope is a report, not an assertion.
    """
    lengths = sorted(set(int(x) for x in lengths))
    if len(lengths) < 3:
        raise ValueError("need at least 3 lengths for a fit")
    pts = []
    for n in lengths:
        w = search_word(n, beam, seed)
        pts.append((n, len(inverted_orbit(w))))
    x = np.log([p[0] for p in pts])
    y = np.log([max(p[1], 1) for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(slope), resid, pts
