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
