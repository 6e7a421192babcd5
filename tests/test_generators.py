import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import level_log2_sizes_oracle, sequence_degree_oracle
from ibntrees import generators as gen


def test_sequence_degree_values():
    # 2 exactly at n = k + k(k+1)/2
    d = gen.sequence_family().degrees(15)
    assert d.dtype == np.int64
    assert (d[2], d[3], d[9]) == (2, 1, 2)
    assert d[1:].tolist() == [1, 2, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 1, 2]
    assert len(gen.sequence_family().degrees(0)) == 0


def test_sequence_degree_matches_enumeration():
    positions = {k + (1 + k) * k // 2 for k in range(1, 100)}
    d = gen.sequence_family().degrees(3000)
    for n in range(1, 3000):
        assert d[n] == (2 if n in positions else 1)


def test_sequence_degrees_match_scalar_rule():
    for N in (1, 2, 3, 5, 6, 9, 10, 5000):
        want = [sequence_degree_oracle(n) for n in range(N)]
        assert gen.sequence_family().degrees(N).tolist() == want


def test_sequence_level_sizes_product_oracle():
    sizes = gen.level_sizes(gen.sequence_family().degrees(40))
    prod = 1
    for n in range(1, 41):
        prod *= sequence_degree_oracle(n - 1)
        assert sizes[n] == prod
    assert sizes[6] == 4


def test_sequence_log2_at_1000_is_two_count():
    # independent oracle: enumerate the doubling positions below 1000
    twos = sum(1 for k in range(1, 1000) if k + (1 + k) * k // 2 < 1000)
    assert twos == 43
    sizes = gen.level_sizes(gen.sequence_family().degrees(1000))
    assert sizes[1000] == 2 ** twos


def test_spherically_symmetric_counts():
    t = gen.spherically_symmetric(np.full(5, 2), 5)
    assert len(t.level_set(5)) == 32
    t = gen.spherically_symmetric(gen.sequence_family().degrees(9), 6)  # reads depths 0..5 only
    assert len(t.level_set(6)) == 4
    assert t.height() == 6


def test_spherically_symmetric_errors(monkeypatch):
    with pytest.raises(ValueError, match="degree 0 < 1 at depth 1"):
        gen.spherically_symmetric(np.array([2, 0, 1]), 3)
    with monkeypatch.context() as m, pytest.raises(gen.MemoryCapError):
        m.setattr(gen, "DEFAULT_VERTEX_CAP", 10 ** 4)
        gen.spherically_symmetric(np.full(30, 3), 30)
    with pytest.raises(gen.MemoryCapError):  # 2**70 vertices: the width overflows int64
        gen.spherically_symmetric(np.full(70, 2), 70)
    with pytest.raises(ValueError):
        gen.spherically_symmetric(np.array([], dtype=np.int64), 1)
    with pytest.raises(ValueError):
        gen.spherically_symmetric(np.array([2, 2]), 3)
    with pytest.raises(ValueError):
        gen.spherically_symmetric(np.array([2]), 0)


def test_spherically_symmetric_cap_is_exact(monkeypatch):
    # 1 + 2 + ... + 2**10 = 2047 vertices
    monkeypatch.setattr(gen, "DEFAULT_VERTEX_CAP", 2047)
    assert gen.spherically_symmetric(np.full(10, 2), 10).n_vertices == 2047
    monkeypatch.setattr(gen, "DEFAULT_VERTEX_CAP", 2046)
    with pytest.raises(gen.MemoryCapError, match="2047 vertices at depth 10"):
        gen.spherically_symmetric(np.full(10, 2), 10)


def test_family_builders_read_the_vertex_cap_when_they_run(monkeypatch):
    # 1023 and 8195 vertices at the default cap, refused at a cap of 100
    assert gen.binary_family().build(9).n_vertices == 1023
    assert gen.three_one_family().build(45).n_vertices == 8195
    monkeypatch.setattr(gen, "DEFAULT_VERTEX_CAP", 100)
    with pytest.raises(gen.MemoryCapError, match=r"\(cap 100\)"):
        gen.binary_family().build(9)
    with pytest.raises(gen.MemoryCapError, match=r"\(cap 100\)"):
        gen.three_one_family().build(45)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=2, max_size=7))
def test_spherical_symmetry_property(degrees):
    t = gen.spherically_symmetric(np.array(degrees), len(degrees))
    for n in range(len(degrees)):
        counts = {len(t.children(v)) for v in t.level_set(n)}
        assert counts == {degrees[n]}


def test_marks_family_degenerate():
    path = gen.marks_family([False] * 6).build(6)
    assert path.n_vertices == 7
    full = gen.marks_family([True] * 4).build(4)
    assert len(full.level_set(4)) == 16
    # past the marks every vertex has one child
    assert gen.marks_family([True]).degrees(5).tolist() == [2, 1, 1, 1, 1]
    assert gen.marks_family([True, False, True]).degrees(2).tolist() == [2, 1]


def test_three_one_depth_one_and_base_levels():
    t = gen.three_one_stretched(1)
    assert len(t.children(0)) == 2
    assert t.height() == 1
    # base level j sits at depth j(j+1)/2 with 2^j vertices
    t = gen.three_one_stretched(gen.triangular(6))
    lv = t.level_sizes()
    for j in range(1, 7):
        assert lv[gen.triangular(j)] == 2 ** j


def test_three_one_level_sizes_match_base_level_loop():
    # the per-depth rule: depth d lies on the paths into base level
    # base_level_at_depth(d), which hold 2**j vertices per depth
    for N in list(range(1, 301)) + [131328]:
        loop = np.zeros(N + 1)
        for d in range(1, N + 1):
            loop[d] = gen.base_level_at_depth(d)
        fast = gen.three_one_family().level_log2_sizes(N)
        assert fast.dtype == loop.dtype and np.array_equal(fast, loop), N


@pytest.mark.parametrize("family, N", [
    (gen.sequence_family(), 40), (gen.binary_family(), 12), (gen.path_family(), 30),
    (gen.three_one_family(), gen.triangular(7) + 3),
    (gen.marks_family([True, False, True]), 10),            # marks shorter than N
    (gen.marks_family([i % 3 == 0 for i in range(40)]), 20),  # marks longer than N
], ids=["seq", "binary", "path", "three-one", "marks-short", "marks-long"])
def test_level_log2_sizes_match_built_tree(family, N):
    lv = family.level_log2_sizes(N)
    assert len(lv) == N + 1
    assert np.array_equal(np.log2(family.build(N).level_sizes()), lv)
    if family.branches is not None:  # and the exact sizes of every symmetric family
        assert gen.level_sizes(family.degrees(N)) == family.build(N).level_sizes().tolist()


READER_FAMILIES = [gen.sequence_family(), gen.binary_family(), gen.path_family(),
                   gen.marks_family(np.random.default_rng(5).random(3000) < 0.1),
                   gen.three_one_family()]


@pytest.mark.parametrize("N", [1, 192, 1024, 131328])
@pytest.mark.parametrize("family", READER_FAMILIES, ids=lambda f: f.name)
def test_level_reader_reads_the_whole_depth_arrays(family, N):
    want = level_log2_sizes_oracle(family, N)
    lv = family.level_log2_sizes(N)
    assert lv.dtype == want.dtype and np.array_equal(lv, want)
    read = family.level_reader(N)
    rng = np.random.default_rng(N)
    ranges = [(N, N + 1), (0, 1), (0, N + 1)] + [
        (a, a + 1 + rng.integers(0, N + 1 - a)) for a in rng.integers(0, N + 1, size=50)]
    for a, b in ranges:
        got = read(a, b)
        assert got.dtype == want.dtype and np.array_equal(got, want[a:b]), (a, b)
    for a, b in [(-1, 2), (0, N + 2), (1, 1), (2, 1)]:
        with pytest.raises(ValueError, match="not a range"):
            read(a, b)


def test_level_sizes_exact_past_int64():
    sizes = gen.level_sizes(np.full(100, 2, dtype=np.int64))
    assert sizes[100] == 2 ** 100 and all(type(s) is int for s in sizes)
    assert gen.level_sizes(np.array([], dtype=np.int64)) == [1]


def test_three_one_level_profile_matches_materialized():
    N = gen.triangular(6)
    t = gen.three_one_stretched(N)
    lv = t.level_sizes()
    prof = gen.three_one_family().level_log2_sizes(N)
    for d in range(1, N + 1):
        assert lv[d] == 2 ** int(prof[d])


def test_three_one_memory_cap(monkeypatch):
    with monkeypatch.context() as m, pytest.raises(gen.MemoryCapError):
        m.setattr(gen, "DEFAULT_VERTEX_CAP", 10 ** 5)
        gen.three_one_stretched(5000)
    # the estimate is a closed form: 2**1414235 vertices are refused at once
    with pytest.raises(gen.MemoryCapError, match=r"needs ~2\*\*1414235\.4 vertices"):
        gen.three_one_stretched(10 ** 12)
    with pytest.raises(gen.MemoryCapError, match="level-size table"):
        gen.three_one_family().level_log2_sizes(10 ** 12)


def test_family_lookup():
    assert gen.family_by_name("seq").name == "seq"
    assert gen.family_by_name("marks", [True, False]).degrees(3).tolist() == [2, 1, 1]
    assert gen.family_by_name("three-one").branches is None
    with pytest.raises(ValueError):
        gen.family_by_name("nope")
    with pytest.raises(ValueError):
        gen.family_by_name("marks")


def _sha(tree) -> str:
    return hashlib.sha256(tree.to_text().encode()).hexdigest()


# to_text() SHA-256 of each builder's output, recorded from the earlier
# builders that grew the tree one vertex at a time: the bulk builders keep
# their vertex ids, parents, depths and file bytes.
THREE_ONE_SHA = {
    1: "06689bdae2a14116ec942f608e379d3163eae23636672f58627e1fc264074689",
    2: "2c0c5d5a97ed61e7c40d9261e939558963ce730865d1b0055aa8690545473787",
    3: "54d766006d255dad2762a43d7be668c43f0be85d55636b8f4f2a0deb608d2682",
    6: "aeae1306741bfbae622c92d8b700e8398a8e707c6a5a699cb2e6c6cc431bc227",
    15: "53e4de3a467ea0d50fbccaff94d04e10153892e6a4d52c3505fd6cd6d755fe73",
    45: "a70304a028ba4be58bcc0cbc83903a1eedf60bdb60bf29d5a93848423a8527e8",
    78: "213828f09f4a5eb2bc206a465594a4959ec3ecd1c13ec6d127f69320c168135c",
}


@pytest.mark.parametrize("N", sorted(THREE_ONE_SHA))
def test_three_one_text_pinned(N):
    assert _sha(gen.three_one_stretched(N)) == THREE_ONE_SHA[N]


def test_sequence_tree_text_pinned():
    t = gen.sequence_family().build(96)
    assert t.n_vertices == 73729
    assert _sha(t) == "83c873fe215c4a13a54854eaee40072c796586e228eac31591472a104f6abbb1"


def test_branch_marks_tree_text_pinned():
    marks = [(i * 7 + 3) % 5 < 2 for i in range(20)]
    t = gen.marks_family(marks).build(18)
    assert t.n_vertices == 552
    assert _sha(t) == "7055fac77931a992e721ba84a949b80765d713da3fddc5f6ecb7484cc735bb8f"
