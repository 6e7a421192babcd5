"""Machine-speed calibration for the benchmark's times.

On a shared virtual machine the CPU's own speed changes, in phases that last
minutes, by a third or more: another tenant's load on the same physical core
slows every instruction of the benchmark.  Medians over passes remove noise
from pass to pass, not these phases.  So every timed interval is bracketed by
two short fixed kernels, one in the interpreter and one in numpy, whose
times on the reference machine are REFERENCE_S; slowdown() is how many times
slower than that they ran just now.  Dividing a measured time by the
slowdown around it gives the time the same work takes at reference speed.

The kernels allocate no containers and no arrays, so neither the garbage
collector nor the allocator, whose state depends on the program's heap,
changes their time; their arrays hold 96 KB.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel times, in seconds, of the reference machine (a 2-vCPU Intel Xeon
# virtual machine, Python 3.11, numpy 2.4; rounded medians).
REFERENCE_S = (0.020, 0.019)

_SLOTS = [0] * 1024
_ARRAY = np.linspace(0.0, 1.0, 4096)
_SCALED = np.empty_like(_ARRAY)
_SUMS = np.empty_like(_ARRAY)


def _interpreter() -> int:
    slots = _SLOTS
    total = 0
    for i in range(100000):
        slots[i & 1023] ^= i
        total += len(str(i))
    return total


def _numpy() -> float:
    # Into preallocated arrays: a kernel that allocated arrays would time the
    # allocator, whose state depends on what the program freed before.
    total = 0.0
    for _ in range(800):
        np.multiply(_ARRAY, 1.0001, out=_SCALED)
        np.cumsum(_SCALED, out=_SUMS)
        total += float(_SUMS.sum())
    return total


# Run each kernel once now, so that first-call costs stay out of every
# measurement.
_interpreter()
_numpy()


def slowdown() -> float:
    """Kernel time over reference time, averaged over the kernels: 1.0 at
    reference speed, 1.3 when the machine runs 30 % slower."""
    ratios = []
    for kernel, reference in zip((_interpreter, _numpy), REFERENCE_S):
        start = time.perf_counter()
        kernel()
        ratios.append((time.perf_counter() - start) / reference)
    return sum(ratios) / len(ratios)
