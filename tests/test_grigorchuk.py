import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (act_point_oracle, act_point_word, doubling_word, erase_pass_oracle,
                      search_word_oracle)
from ibntrees import generators as gen
from ibntrees import grigorchuk as gg
from ibntrees.flowcut import DepthSchedule, ibn_estimate
from ibntrees.rng import stream_rng

words = st.text(alphabet="abcd", min_size=0, max_size=24)


def test_act_on_ray_examples():
    assert gg.act_point("a", "") == "0"          # flips the first tail 1
    assert gg.act_point("d", "") == ""           # the b/c/d descent fixes all-ones
    assert gg.act_point("b", "0") == "00"        # dispatch on 0 applies a to the tail


def test_act_point_matches_finite_action():
    # embed prefix.111... as a depth-10 string and compare letter by letter
    for prefix in ("", "0", "01", "10", "0010", "11010"):
        s = (prefix + "1" * 10)[:10]
        for letter in "abcd":
            expected = gg.act_word_on_string(letter, s)
            got = (gg.act_point(letter, prefix) + "1" * 10)[:10]
            assert got == expected, (letter, prefix)


def test_act_point_matches_the_section_walk_oracle():
    # every canonical prefix (no trailing 1) of length <= 12: 4096 of them
    prefixes = [""] + ["".join(bits) + "0" for k in range(12)
                       for bits in itertools.product("01", repeat=k)]
    assert len(prefixes) == 4096
    for letter, prefix in itertools.product(gg.GENERATORS, prefixes):
        assert gg.act_point(letter, prefix) == act_point_oracle(letter, prefix), (letter, prefix)


def test_relations_hold_and_corruption_detected(monkeypatch):
    for depth in (1, 4, 8):
        assert gg.verify_relations(depth)
    monkeypatch.setattr(gg, "SECTIONS", {"b": ("a", "c"), "c": ("a", "d"), "d": (None, "c")})
    assert not gg.verify_relations(8)


def test_reduce_word():
    assert gg.reduce_word("aa") == ""
    assert gg.reduce_word("bc") == "d"
    assert gg.reduce_word("bdc") == ""  # bd = c, then cc = 1
    assert gg.reduce_word("abab") == "abab"


def test_is_trivial_small_words():
    assert gg.is_trivial("aa")
    assert gg.is_trivial("")
    assert not gg.is_trivial("ab")
    assert gg.is_trivial("bcd")  # bc = d, dd = 1
    k = 1
    while not gg.is_trivial("ab" * k):
        k += 1
    assert gg.is_trivial("ab" * k) and k == 16  # order found by brute force


def test_is_trivial_matches_exhaustive_to_length_6():
    strings = ["".join(b) for b in itertools.product("01", repeat=10)]
    for length in range(1, 7):
        for tup in itertools.product("abcd", repeat=length):
            w = "".join(tup)
            brute = all(gg.act_word_on_string(w, s) == s for s in strings)
            assert gg.is_trivial(w) == brute, w


def test_inverted_orbit_basics():
    assert gg.inverted_orbit("") == frozenset({""})
    assert gg.inverted_orbit("a") == frozenset({"0"})


@settings(max_examples=60, deadline=None)
@given(words)
def test_orbit_growth_at_most_one_per_letter(w):
    sizes = gg.orbit_sizes(w)
    assert sizes[0] == 1
    diffs = np.diff(sizes)
    assert (diffs >= 0).all() and (diffs <= 1).all()


@settings(max_examples=40, deadline=None)
@given(words)
def test_orbit_incremental_matches_scratch(w):
    # from-scratch oracle: the orbit is exactly the suffix products applied
    # to the marked point
    def scratch(word):
        if not word:
            return frozenset({gg.X0})
        return frozenset(act_point_word(word[i:], gg.X0) for i in range(len(word)))

    sizes = gg.orbit_sizes(w)
    for l in (0, len(w) // 2, len(w)):
        assert gg.inverted_orbit(w[:l]) == scratch(w[:l])
        assert sizes[l] == len(scratch(w[:l]))


@pytest.fixture
def fresh_images(monkeypatch):
    """Empty image tables for one test; the shared ones come back after it."""
    tables = {ch: {} for ch in gg.GENERATORS}
    monkeypatch.setattr(gg, "_IMAGES", tables)
    return tables


def test_search_computes_each_point_action_once(fresh_images, monkeypatch):
    calls = []

    def counting(letter, prefix):
        calls.append((letter, prefix))
        return act_point(letter, prefix)

    act_point = gg.act_point
    monkeypatch.setattr(gg, "act_point", counting)
    gg.search_word(64, 64, seed=2)
    entries = sum(len(image) for image in fresh_images.values())
    assert entries > 0
    assert len(calls) == entries == len(set(calls))


def test_warm_tables_keep_the_exact_orbits(fresh_images):
    w = gg.search_word(160, 64, 1)
    assert all(fresh_images.values())
    sizes = gg.orbit_sizes(w)
    for l in range(len(w) + 1):
        scratch = frozenset(act_point_word(w[i:l], gg.X0) for i in range(l)) \
            if l else frozenset({gg.X0})
        assert gg.inverted_orbit(w[:l]) == scratch, l
        assert sizes[l] == len(scratch), l


# (n, beam, seed): beam ties broken by the permutation draw, a short word
# whose states never outgrow the beam, a narrow beam on a short word, and
# CI's length 512, whose rows reach 113 points: keys of two uint64 words
ORACLE_CASES = [(160, 64, 1), (160, 64, 2), (128, 64, 0), (12, 256, 0), (12, 4, 3),
                (32, 32, 1), (256, 32, 1), (64, 64, 5), (200, 16, 7), (512, 64, 0)]


@pytest.mark.parametrize("n, beam, seed", ORACLE_CASES)
def test_search_matches_the_frozenset_oracle(n, beam, seed):
    assert gg.search_word(n, beam, seed) == search_word_oracle(n, beam, seed)


@pytest.mark.parametrize("n, beam, seed", [(160, 64, 1), (64, 64, 2)])
def test_search_acts_on_the_oracles_points(fresh_images, monkeypatch, n, beam, seed):
    word = gg.search_word(n, beam, seed)
    oracle_tables = {ch: {} for ch in gg.GENERATORS}
    monkeypatch.setattr(gg, "_IMAGES", oracle_tables)
    assert search_word_oracle(n, beam, seed) == word
    assert all(oracle_tables.values())
    assert fresh_images == oracle_tables


@pytest.mark.parametrize("width", [1, 63, 64, 65, 128, 129])
def test_first_rows_match_unique(width):
    # keys of one, two and three uint64 words; rows repeat, and some differ
    # only in their last column
    draws = np.random.default_rng(width)
    for n_rows, distinct in ((1, 1), (7, 1), (50, 9), (300, 120)):
        base = draws.random((distinct, width)) < 0.5
        rows = base[draws.integers(0, distinct, n_rows)]
        flipped = rows[-1].copy()
        flipped[-1] ^= True
        rows = np.vstack([rows, flipped, rows[:3]])
        want = np.sort(np.unique(rows, axis=0, return_index=True)[1])
        assert np.array_equal(gg._first_rows(rows), want), (width, n_rows)


def test_search_stops_at_the_element_cap(monkeypatch):
    # the n = 12 search, never over its beam of 256, extends 91 states over
    # 13 points by 4 generators in its last step; a beam of 64 at n = 64
    # peaks at 11776
    monkeypatch.setattr(gen, "DEFAULT_VERTEX_CAP", 4731)
    with pytest.raises(gen.MemoryCapError, match="the word search would hold 4732 elements"):
        gg.search_word(12)
    monkeypatch.setattr(gen, "DEFAULT_VERTEX_CAP", 4732)
    assert len(gg.search_word(12)) == 12
    monkeypatch.setattr(gen, "DEFAULT_VERTEX_CAP", 10000)
    with pytest.raises(gen.MemoryCapError, match="the word search"):
        gg.search_word(64, beam=64, seed=0)


def test_battery_wreath_word_is_pinned():
    # grig --search 128 --beam 64 at seed 0, the marks row of both batteries
    q = gg.loop_erase(gg.search_word(128, 64, 0))
    bm = gg.branch_marks(q)
    assert hashlib.sha256(q.encode()).hexdigest() == \
        "183479c999defa30c31cabced0333718abbb4e5490275098cb3e7ab4061a3f57"
    assert len(q) == 121
    assert int(bm.sizes[-1]) == len(gg.inverted_orbit(q)) == 29
    assert bm.max_tree_depth() == 150


def test_loop_erase_keeps_orbit_growing_loops():
    # aa is trivial but its span grows the orbit (x0 a is new), so it stays
    assert gg.loop_erase("aa") == "aa"
    # dd is trivial and orbit-flat, so it goes
    assert gg.loop_erase("dd") == ""
    assert gg.loop_erase("abadac") == "abadac"


def test_loop_erase_output_property_random():
    rng = stream_rng(17, 9)
    for _ in range(60):
        w = "".join("abcd"[i] for i in rng.integers(0, 4, size=24))
        q = gg.loop_erase(w)
        sizes = gg.orbit_sizes(q)
        for i in range(len(q)):
            for j in range(i + 2, len(q) + 1):
                if sizes[j] == sizes[i]:
                    assert not gg.is_trivial(q[i:j]), (w, q, i, j)


def test_loop_erase_preserves_prefix_orbit_counts():
    rng = stream_rng(23, 9)
    for _ in range(30):
        w = "".join("abcd"[i] for i in rng.integers(0, 4, size=20))
        q = gg.loop_erase(w)
        assert gg.orbit_sizes(q)[-1] >= gg.orbit_sizes(w)[-1] - 0  # no orbit point lost
        assert len(gg.inverted_orbit(q)) == gg.orbit_sizes(q)[-1]


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="abcd", max_size=60))
def test_erase_pass_matches_the_keep_mask_oracle(w):
    assert gg._erase_pass(w) == erase_pass_oracle(w)


@pytest.mark.parametrize("n, beam, seed", [(160, 64, 1), (128, 64, 0), (512, 64, 0),
                                           (256, 32, 1), (64, 8, 3)])
def test_loop_erase_of_searched_words_matches_the_keep_mask_oracle(n, beam, seed):
    w = gg.search_word(n, beam, seed)
    assert gg._erase_pass(w) == erase_pass_oracle(w)
    q = w
    while (erased := erase_pass_oracle(q)) != q:
        q = erased
    assert gg.loop_erase(w) == q


def test_search_word_exhaustive_small():
    # within the default beam the search is exhaustive: it reaches the
    # largest orbit over all 4**n words
    w = gg.search_word(1)
    assert len(w) == 1 and len(gg.inverted_orbit(w)) == 1
    for n, largest in ((4, 3), (6, 4), (8, 5)):
        words = map("".join, itertools.product(gg.GENERATORS, repeat=n))
        assert max(len(gg.inverted_orbit(w)) for w in words) == largest
        assert len(gg.inverted_orbit(gg.search_word(n))) == largest, n


def test_doubling_word_carries_block_orbits():
    w, blocks = doubling_word(5, beam=32, seed=1)
    sizes = gg.orbit_sizes(w)
    offset = 0
    for k, blk in enumerate(blocks):
        offset += len(blk)
        block_orbit = len(gg.inverted_orbit(blk))
        end = offset + (len(blocks[k + 1]) if k + 1 < len(blocks) else 0)
        assert offset <= 4 * len(blk)
        for p in range(offset, end + 1):
            assert sizes[p] >= block_orbit


def test_branch_marks_conventions():
    w = gg.loop_erase(gg.search_word(32, beam=32, seed=2))
    bm = gg.branch_marks(w)
    assert bool(bm.marks[1])
    assert int(bm.sizes[0]) == 1
    L = bm.word_length
    for n in range(2, L):
        assert bm.Lambda(n) >= (n - 2) / 2
    # cumulative marks equal orbit sizes
    assert (np.cumsum(bm.marks[1:]) == bm.sizes[1:]).all()


def test_branch_marks_all_marks_word():
    sizes = np.concatenate([[1], np.arange(1, 21)])
    marks = np.zeros(21, dtype=bool)
    marks[1:] = True
    bm = gg.BranchMarks(sizes=sizes, marks=marks)
    for n in range(2, 40):
        assert bm.Lambda(n) == n // 2
    lv = gen.marks_family(bm.tree_marks(20)).level_log2_sizes(20)
    for n in range(2, 21):
        assert int(lv[n]) == bm.Lambda(n)


def test_branch_marks_tree_identity():
    w = gg.loop_erase(gg.search_word(48, beam=48, seed=5))
    bm = gg.branch_marks(w)
    depth = min(bm.max_tree_depth(), 22)
    t = gen.marks_family(bm.tree_marks(bm.max_tree_depth())).build(depth)
    lv = t.level_sizes()
    for n in range(2, depth + 1):
        lam_n = bm.Lambda(n)
        assert lv[n] == 2 ** int(bm.sizes[lam_n]), n


def test_marks_tree_ibn_reaches_orbit_exponent():
    w = gg.loop_erase(gg.search_word(64, beam=64, seed=3))
    bm = gg.branch_marks(w)
    exponent = math.log(float(bm.sizes[-1])) / math.log(bm.word_length)
    fam = gen.marks_family(bm.tree_marks(bm.max_tree_depth()))
    maxd = bm.max_tree_depth()
    sched = DepthSchedule(tuple(d for d in (16, 32, 64, maxd) if d <= maxd))
    res = ibn_estimate(fam, sched)
    assert res.lower is not None
    assert res.lower >= exponent - 0.1


def test_eta_and_alpha():
    eta = gg.eta_root(1e-12)
    assert abs(eta ** 3 + eta ** 2 + eta - 2.0) < 1e-10
    alpha = gg.orbit_growth_exponent()
    assert abs(alpha - 0.7674) < 1e-4


def test_orbit_exponent_estimate_reports_slope():
    slope, resid, pts = gg.orbit_exponent_estimate((16, 32, 64, 128), beam=24, seed=0)
    assert 0.0 < slope < 1.0
    assert len(pts) == 4
    with pytest.raises(ValueError):
        gg.orbit_exponent_estimate((16, 32), beam=8, seed=0)


def test_depth_budget_error(monkeypatch):
    # the image 00 of b on 0 needs budget >= 1
    monkeypatch.setattr(gg, "POINT_BUDGET", 0)
    with pytest.raises(gen.MemoryCapError, match="point prefix exceeds 1 letters"):
        gg.act_point("b", "0")
    monkeypatch.setattr(gg, "POINT_BUDGET", 1)
    assert gg.act_point("b", "0") == "00"
