"""Host-speed calibration for the benchmark's timings.

On a shared host the same fixed piece of pure-Python `Fraction` arithmetic
runs at speeds up to twice apart, from one second to the next and in
regimes that last minutes, with CPU time equal to wall time. Whole runs
of the same document moved by that factor, so raw wall times compared the
host's moments, not the program.

The runner therefore interleaves short calibration slices (a fixed
`Fraction` loop of about a millisecond, the same kind of work the package
does with its Gaussian rationals) with the scenarios it times, and scales
each wall time by REFERENCE_SLICE_S over the slices around it. A scaled
time reads as the time on a host where one slice takes REFERENCE_SLICE_S.
The slices are not part of any timed interval, and the package code never
runs them, so a faster program still shows as a smaller scaled time.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

REFERENCE_SLICE_S = 0.001


def slice_seconds() -> float:
    """Wall time of one calibration slice."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 150):
        acc += Fraction(1, k) * Fraction(k + 1, k + 2)
    return time.perf_counter() - start


class SpeedLog:
    """Calibration slices taken during a run, by the time they started."""

    def __init__(self):
        self.starts = []
        self.seconds = []

    def take(self, clock=time.perf_counter) -> None:
        began = clock()
        self.seconds.append(slice_seconds())
        self.starts.append(began)

    def scale(self, at: float) -> float:
        """REFERENCE_SLICE_S over the mean of the last slice before `at`
        and the first one after it (or the nearest one, at either end)."""
        j = bisect.bisect_right(self.starts, at)
        near = self.seconds[max(j - 1, 0)], self.seconds[min(j, len(self.seconds) - 1)]
        return REFERENCE_SLICE_S / (sum(near) / 2)
