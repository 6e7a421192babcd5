import hashlib
import itertools
import math

import numpy as np
import pytest

from conftest import fitted_lower_constant
from ibntrees import nathanson as na
from ibntrees.flowcut import DepthSchedule, ibn_estimate, ibn_log_weights, min_cut
from ibntrees.generators import MemoryCapError
from ibntrees.trees import check_flow


def test_generator_products():
    assert na.mat_mul(na.MAT_A, na.MAT_A) == (1, 2, 0, 1)
    assert na.mat_mul(na.MAT_B, na.MAT_B) == na.MAT_B
    assert na.mat_of_word("bab") == (2, 0, 2, 0)


def test_b_power_identities():
    for k in range(1, 21):
        assert na.mat_of_word("b" + "a" * k + "b") == (k + 1, 0, k + 1, 0)


def test_block_merge_identity():
    for k in range(2, 13):
        for l in range(2, 13):
            lhs = na.mat_of_word("b" + "a" * (k - 1) + "b" + "a" * (l - 1) + "b")
            rhs = na.mat_of_word("b" + "a" * (k * l - 1) + "b")
            assert lhs == rhs


def test_bfs_ball_small_counts_vs_exhaustive():
    for n in (1, 2, 3):
        ball = na.bfs_ball(n)
        mats = {na.MAT_ID}
        for length in range(1, n + 1):
            for word in itertools.product("ba", repeat=length):
                mats.add(na.mat_of_word("".join(word)))
        assert set(ball) == mats
    assert len(na.bfs_ball(1)) == 3  # identity + a + b


def _lex_key(w):
    """Length first, then lexicographic with b < a."""
    return (len(w), [0 if c == "b" else 1 for c in w])


def _brute_minimal_words(n):
    """Matrix -> minimal word over every word of length <= n."""
    brute: dict = {}
    for length in range(0, n + 1):
        for word in itertools.product("ba", repeat=length):
            w = "".join(word)
            m = na.mat_of_word(w)
            if m not in brute or _lex_key(w) < _lex_key(brute[m]):
                brute[m] = w
    return brute


def word_index(lt):
    """Vertex id of every minimal word of lt."""
    return {w: i for i, w in enumerate(lt.words)}


def test_lex_tree_matches_the_matrix_bfs():
    # the automaton against the BFS over the matrices, vertex for vertex
    for n in range(41):
        _, parent, letters, level_ends = na._ball(n)
        lt = na.lex_tree(n)
        assert lt.tree.parent_array().tolist() == parent.tolist(), n
        depth = np.repeat(np.arange(n + 1), np.diff(level_ends, prepend=0))
        assert lt.tree.depth_array().tolist() == depth.tolist(), n
        assert lt.letters == bytes(letters), n


def test_typed_words_are_the_minimal_words_to_length_16():
    # every word of length <= 16, each level's matrices from the last one's;
    # words of one length come in lex order, so the first word of a matrix
    # is its minimal word
    minimal, typed = set(), set()
    seen = {na.MAT_ID}
    level = [("", na.MAT_ID)]
    for _ in range(16):
        level = [(w + ch, na.mat_mul(m, na.GEN[ch])) for w, m in level for ch in "ba"]
        for w, m in level:
            if m not in seen:
                seen.add(m)
                minimal.add(w)
            if na.word_type(w) is not None:
                typed.add(w)
    assert len(minimal) == len(na.bfs_ball(16)) - 1  # the identity has the empty word
    assert typed == minimal


def test_bfs_ball_words_are_lex_minimal():
    assert na.bfs_ball(12) == _brute_minimal_words(12)


def test_lex_tree_matches_brute_force_order():
    # vertex v is the v-th minimal word in length-then-lex order, and its
    # parent is its one-shorter prefix
    words = sorted(_brute_minimal_words(12).values(), key=_lex_key)
    lt = na.lex_tree(12)
    assert list(lt.words) == words
    index = {w: v for v, w in enumerate(words)}
    parents = lt.tree.parent_array()
    assert all(parents[v] == index[w[:-1]] for v, w in enumerate(words) if w)


# 12 and 30 were recorded from the sort-based construction that the one-pass
# BFS replaced, 38 and 60 from that BFS before the automaton replaced it.
PINNED_TREE_SHA256 = {
    12: "26f14aa06a085c7298990320d3dad183586f034d2a7d8475021110094a803c5f",
    30: "de9ea1ae3116ffe6a37392af9f55fdf0eb2445f716841a64e851682700d8ea6e",
    38: "1de793f5501033810493f52d550bf393a9a1e849fcc1e19d8585288240cb5743",
    60: "142948c6f931545202329a413becc9301548d7ec66b69f213d8345a3ed46597e",
}
PINNED_BALL_40 = [
    0, 2, 5, 10, 18, 30, 48, 74, 111, 162, 231, 323, 444, 601, 803, 1060, 1384, 1789,
    2292, 2912, 3672, 4598, 5720, 7073, 8697, 10638, 12948, 15687, 18922, 22730, 27198,
    32424, 38519, 45607, 53828, 63339, 74315, 86953, 101472, 118116, 137157]
PINNED_LEVEL_40 = [
    1, 2, 3, 5, 8, 12, 18, 26, 37, 51, 69, 92, 121, 157, 202, 257, 324, 405, 503, 620,
    760, 926, 1122, 1353, 1624, 1941, 2310, 2739, 3235, 3808, 4468, 5226, 6095, 7088,
    8221, 9511, 10976, 12638, 14519, 16644, 19041]


@pytest.mark.parametrize("n", sorted(PINNED_TREE_SHA256))
def test_lex_tree_text_pinned(n):
    text = na.lex_tree(n).tree.to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TREE_SHA256[n]


def test_ball_sizes_pinned():
    ball, level = na.ball_sizes(40)
    assert ball.dtype == level.dtype == np.int64
    assert ball.tolist() == PINNED_BALL_40
    assert level.tolist() == PINNED_LEVEL_40


@pytest.mark.parametrize("n", [0, 1, 5, 20, 40])
def test_level_counts_agree(n):
    ball, level = na.ball_sizes(n)
    lengths = [len(w) for w in na.bfs_ball(n).values()]
    assert level.tolist() == np.bincount(lengths, minlength=n + 1).tolist()
    assert level.tolist() == na.lex_tree(n).tree.level_sizes().tolist()
    assert ball.tolist() == (np.cumsum(level) - 1).tolist()


def test_ball_cap(monkeypatch):
    monkeypatch.setattr(na, "BALL_CAP", 100)
    with pytest.raises(MemoryCapError, match="ball exceeds"):
        na.bfs_ball(40)


@pytest.mark.parametrize("view", [na.bfs_ball, na.lex_tree, na.ball_sizes])
def test_ball_cap_same_for_every_view(view, monkeypatch):
    size = len(na.bfs_ball(10))  # identity included
    monkeypatch.setattr(na, "BALL_CAP", size)
    view(10)
    monkeypatch.setattr(na, "BALL_CAP", size - 1)
    with pytest.raises(MemoryCapError, match="ball exceeds"):
        view(10)
    monkeypatch.setattr(na, "BALL_CAP", 100)
    with pytest.raises(MemoryCapError, match="ball exceeds"):
        view(40)


def test_theorem_bound_holds_to_40():
    ball, _ = na.ball_sizes(40)
    for n in range(1, 41):
        assert math.log(float(ball[n])) <= na.theorem_bound_log(n)
    assert fitted_lower_constant(ball) > 0


def test_lex_tree_prefix_closed_and_ordered():
    lt = na.lex_tree(12)
    kids = [lt.words[c] for c in lt.tree.children(0)]
    assert kids == ["b", "a"]
    for v in range(1, lt.tree.n_vertices):
        w = lt.words[v]
        assert lt.words[lt.tree.parent(v)] == w[:-1]


def test_word_types_to_depth_24():
    lt = na.lex_tree(24)
    for w in lt.words:
        if w:
            assert na.word_type(w) is not None, w
    assert na.word_type("a" * 5) == 1
    assert na.word_type("aabaa") == 2
    assert na.word_type("babab") == 3       # two blocks of the prime 2
    assert na.word_type("ba" + "a" * 1 + "bab") is None  # 3 then 2 decreases


def test_prime_flow_structure_and_admissibility():
    lt = na.lex_tree(24)
    idx = word_index(lt)
    c = 0.25
    theta = na.prime_flow(lt, c)
    assert theta[idx["b"]] == c and theta[idx["a"]] == 0.0
    assert theta[idx["ba"]] == c
    assert theta[idx["bab"]] == c / 2  # first prime split
    assert theta[idx["baa"]] == c / 2
    d = lt.tree.depth_array().astype(float)
    cap = np.empty(lt.tree.n_vertices)
    cap[0] = np.inf
    cap[1:] = np.exp(-np.power(d[1:], 0.4))
    res = check_flow(lt.tree, theta, cap)
    assert res.valid and math.isclose(res.strength, c)


def test_prime_flow_is_max_flow_witness():
    # the flow pushes min-cut style mass, so the cut value dominates it
    lt = na.lex_tree(16)
    theta = na.prime_flow(lt, 0.25)
    res = min_cut(lt.tree, ibn_log_weights(lt.tree, 0.4), 16, want_cut=False)
    assert 0.25 <= res.value + 1e-12 or res.value >= 0.25  # cut >= strength


def test_ibn_flow_side_stays_below_half():
    # the prime flow supports the cut values for lam <= 1/2 at any depth;
    # the full bracket needs the depth-60 tree and runs in the acceptance suite
    lt = na.lex_tree(30)
    res = ibn_estimate(lt.tree, DepthSchedule((10, 20, 30)), grid=(0.25, 0.5))
    assert res.classifications[0.25] == "below"
    assert res.classifications[0.5] == "below"


def test_growth_trend():
    ball, level = na.ball_sizes(40)
    ratios = [math.log(math.log(float(ball[n]))) / math.log(n) for n in (20, 30, 40)]
    assert all(0.3 < r < 0.9 for r in ratios)
