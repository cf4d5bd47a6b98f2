"""Machine-speed reference for scaling measured times.

On a shared 2-core VM the CPU's speed drifts by about ±20% over seconds to
minutes: a fixed pure-Python loop took 19-31 ms from one second to the
next, with process CPU time equal to wall time.  So runs of the same inputs
differed by up to 40%.  Runs therefore interleave a fixed reference loop
with their work, and every reported end-to-end time is scaled by
``REF_S / median(reference loop time)``.  The result is the time at the
speed at which the loop takes ``REF_S``.  On that VM, scaling cut the
run-to-run spread of the same trials about threefold.  The loop is
benchmark code, so the program under test cannot change it.
"""

from __future__ import annotations

import statistics
import time

# Reference loop time the reported times are scaled to: its typical value
# on the 2-core VM above, so scaled and raw times are of the same size.
REF_S = 1.4e-3
# Least time between two reference samples; a sample costs about REF_S.
INTERVAL_S = 0.1


def reference_s() -> float:
    """Seconds one pass of the fixed reference loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    return time.perf_counter() - t0


class SpeedProbe:
    """Reference samples taken between trials, at most one per INTERVAL_S."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self, force: bool = False) -> float:
        """Take a sample if one is due; return the seconds that took."""
        t0 = time.perf_counter()
        if not force and t0 - self._last < INTERVAL_S:
            return 0.0
        self.samples.append(reference_s())
        self._last = time.perf_counter()
        return self._last - t0

    def scale(self) -> float:
        """Factor that takes a time measured during the samples to REF_S speed."""
        return REF_S / statistics.median(self.samples)
