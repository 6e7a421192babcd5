import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibntrees import generators as gen


def test_sequence_degree_values():
    # 2 exactly at n = k + k(k+1)/2
    assert gen.sequence_degree(2) == 2
    assert gen.sequence_degree(3) == 1
    assert gen.sequence_degree(9) == 2
    first = [gen.sequence_degree(n) for n in range(1, 15)]
    assert first == [1, 2, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 1, 2]


def test_sequence_degree_matches_enumeration():
    positions = {k + (1 + k) * k // 2 for k in range(1, 100)}
    for n in range(1, 3000):
        assert gen.sequence_degree(n) == (2 if n in positions else 1)


def test_sequence_level_sizes_product_oracle():
    sizes = gen.sequence_level_sizes(40)
    prod = 1
    for n in range(1, 41):
        prod *= gen.sequence_degree(n - 1)
        assert sizes[n] == prod
    assert sizes[6] == 4


def test_sequence_log2_at_1000_is_two_count():
    # independent oracle: enumerate the doubling positions below 1000
    twos = sum(1 for k in range(1, 1000) if k + (1 + k) * k // 2 < 1000)
    assert twos == 43
    sizes = gen.sequence_level_sizes(1000)
    assert sizes[1000] == 2 ** twos


def test_spherically_symmetric_counts():
    t = gen.spherically_symmetric(lambda n: 2, 5)
    assert len(t.level_set(5)) == 32
    t = gen.spherically_symmetric(gen.sequence_degree, 6)
    assert len(t.level_set(6)) == 4


def test_spherically_symmetric_errors():
    with pytest.raises(ValueError):
        gen.spherically_symmetric(lambda n: 0, 3)
    with pytest.raises(gen.MemoryCapError):
        gen.spherically_symmetric(lambda n: 3, 30, max_vertices=10 ** 4)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=2, max_size=7))
def test_spherical_symmetry_property(degrees):
    t = gen.spherically_symmetric(lambda n: degrees[n], len(degrees))
    for n in range(len(degrees)):
        counts = {len(t.children(v)) for v in t.level_set(n)}
        assert counts == {degrees[n]}


def test_from_branch_marks_degenerate():
    path = gen.from_branch_marks([False] * 6, 6)
    assert path.n_vertices == 7
    full = gen.from_branch_marks([True] * 4, 4)
    assert len(full.level_set(4)) == 16
    with pytest.raises(ValueError):
        gen.from_branch_marks([True], 5)


def test_three_one_depth_one_and_base_levels():
    t = gen.three_one_stretched(1)
    assert len(t.children(0)) == 2
    assert t.height() == 1
    # base level j sits at depth j(j+1)/2 with 2^j vertices
    t = gen.three_one_stretched(gen.triangular(6))
    lv = t.level_sizes()
    for j in range(1, 7):
        assert lv[gen.triangular(j)] == 2 ** j


def test_three_one_level_profile_matches_materialized():
    N = gen.triangular(6)
    t = gen.three_one_stretched(N)
    lv = t.level_sizes()
    prof = gen.three_one_level_log2_sizes(N)
    for d in range(1, N + 1):
        assert lv[d] == 2 ** int(prof[d])


def test_three_one_memory_cap():
    with pytest.raises(gen.MemoryCapError):
        gen.three_one_stretched(5000, max_vertices=10 ** 5)


def test_family_lookup():
    assert gen.family_by_name("seq").name == "seq"
    assert gen.family_by_name("marks", [True, False]).degree(0) == 2
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
    t = gen.spherically_symmetric(gen.sequence_degree, 96)
    assert t.n_vertices == 73729
    assert _sha(t) == "83c873fe215c4a13a54854eaee40072c796586e228eac31591472a104f6abbb1"


def test_branch_marks_tree_text_pinned():
    marks = [(i * 7 + 3) % 5 < 2 for i in range(20)]
    t = gen.from_branch_marks(marks, 18)
    assert t.n_vertices == 552
    assert _sha(t) == "7055fac77931a992e721ba84a949b80765d713da3fddc5f6ecb7484cc735bb8f"
