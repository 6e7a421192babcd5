"""Counter-based random streams (Philox) for reproducible experiments.

Every stochastic routine takes an explicit 64-bit seed.  Streams are keyed
by (seed, stream id, index), so draws never depend on traversal or
scheduling order.  Edge conductances read one EDGE_STREAM stream in edge-id
order; a walk batch reads one WALK_STREAM stream, one uniform per live
walker per step, drawn ahead into one buffer that is refilled in place and
read a chunk of steps at a time, each chunk as long as the walkers' depths
allow no walker to stop inside it; mc_survival reads one PERC_STREAM
substream per 256-trial chunk; the word search reads one SEARCH_STREAM
stream.

A Philox generator's random(a) then random(b) returns the same values as
random(a + b): each double takes one 64-bit word, and words left over in
the generator's 4-word buffer carry to the next call.  random(out=view)
fills a view with the values random(len(view)) would return.  So how a
consumer splits its draws into calls, or into which array it draws them,
never changes the values it reads.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Fixed stream ids, one per consumer, so substreams never collide.
EDGE_STREAM = 1
WALK_STREAM = 2
PERC_STREAM = 3
SEARCH_STREAM = 4


def stream_rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """Generator for substream (seed, stream, index).

    seed is the first Philox key word, so it must lie in [0, 2**64);
    stream must be < 2**16 and index < 2**48; they are packed into the
    second key word.
    """
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed out of range: {seed}")
    if not 0 <= stream < (1 << 16):
        raise ValueError(f"stream id out of range: {stream}")
    if not 0 <= index < (1 << 48):
        raise ValueError(f"stream index out of range: {index}")
    key = np.array([seed, (stream << 48) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniforms(seed: int, stream: int, n: int) -> np.ndarray:
    """n uniforms on (0, 1] from the given stream.

    The half-open flip (1 - U) keeps 1.0 inside the support, which the
    conductance sampler relies on (its t = u**(-1/(1-lam)) needs u > 0).
    """
    return 1.0 - stream_rng(seed, stream).random(n)
