"""Host-speed reference.

Shared VMs change speed by up to 2x within seconds: on the 2-vCPU VM this
benchmark was written on, the loop below took 1.7 ms in one second and
3.6 ms in the next, and inclab's ops slowed down with it.  The benchmark
times the loop next to every op and scales the op's time to a host on which
the loop takes REF_S.  The loop uses `fractions` only, never inclab, so a
change to the program does not move it; a change that slows the whole
process (a busy thread, heavy GC) would move both and partly hide itself,
which is why the run record keeps the unscaled figures too.
"""

from __future__ import annotations

import time
from fractions import Fraction

REF_S = 0.003  # seconds one pass of the loop takes on the reference host


def _loop() -> Fraction:
    s = Fraction(0)
    for i in range(1, 120):
        s = s * Fraction(i, i + 2) + Fraction(1, i)
        s = s.limit_denominator(1000)
    return s


def sample() -> float:
    """Seconds one pass of the loop takes now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def scale(*samples: float) -> float:
    """Factor that takes seconds measured among these samples to the
    reference host."""
    return REF_S * len(samples) / sum(samples)
