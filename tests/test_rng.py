import numpy as np
import pytest

from ibntrees import rng


@pytest.mark.parametrize("seed, stream, index, field", [
    (-1, 1, 0, "seed"),
    (5 - 2 ** 64, 1, 0, "seed"),
    (2 ** 64, 1, 0, "seed"),
    (5 + 2 ** 64, 1, 0, "seed"),  # a masked seed would alias it to 5
    (0, -1, 0, "stream id"),
    (0, 1 << 16, 0, "stream id"),
    (0, 1, -1, "stream index"),
    (0, 1, 1 << 48, "stream index"),
])
def test_stream_rng_rejects_a_key_field_out_of_range(seed, stream, index, field):
    with pytest.raises(ValueError, match=f"^{field} out of range"):
        rng.stream_rng(seed, stream, index)


@pytest.mark.parametrize("a, b", [(1, 3), (3, 5), (5, 1), (1, 65537), (65537, 3), (5, 65537)])
def test_walk_stream_draws_split_anywhere_alike(a, b):
    # the batch walker draws its uniforms ahead in blocks; it reads the same
    # values only because random(a) then random(b) continues one sequence,
    # also when a or b ends inside Philox's buffer of 4 words
    whole = rng.stream_rng(9, rng.WALK_STREAM).random(a + b)
    g = rng.stream_rng(9, rng.WALK_STREAM)
    assert np.array_equal(np.concatenate((g.random(a), g.random(b))), whole)


@pytest.mark.parametrize("a, b", [(0, 5), (1, 3), (3, 65536), (65533, 3), (5, 65537)])
def test_walk_stream_fills_a_view_as_it_draws(a, b):
    # the walk refills its draw buffer in place: the unread tail moves to
    # the front and random(out=...) fills the rest, which must hold the
    # values random(a + b) has at those positions
    whole = rng.stream_rng(9, rng.WALK_STREAM).random(a + b)
    g = rng.stream_rng(9, rng.WALK_STREAM)
    head = g.random(a)
    buf = np.full(b + 2, -1.0)
    g.random(out=buf[1:b + 1])
    assert np.array_equal(head, whole[:a])
    assert np.array_equal(buf[1:b + 1], whole[a:])
    assert buf[0] == buf[-1] == -1.0  # nothing outside the view is written
