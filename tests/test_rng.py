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
