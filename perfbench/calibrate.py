"""Machine-speed calibration of the benchmark's timings.

The machine the benchmark was tuned on changes speed by up to a quarter
over seconds to minutes, for every process alike: one orbit pass took
2.5 s and the same pass 4.8 s a minute later.  A fixed kernel of Fraction,
big-integer and dict work, run between operations, tracks that speed.
Each timing is multiplied by REFERENCE_S over the kernel's time around it,
so it reads as seconds at the speed where the kernel takes REFERENCE_S.
The kernel calls nothing in padicdyn: a change to the library moves the
scaled timings exactly as much as the raw ones.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import median
from time import perf_counter

REFERENCE_S = 0.0075
INTERVAL_S = 0.2  # least time between two samples
WINDOW_S = 0.5  # samples this close to an operation calibrate it
MIN_SAMPLES = 3


def kernel() -> int:
    table = {}
    x = Fraction(1, 3)
    acc = 0
    for i in range(1, 700):
        x = x * Fraction(2 * i + 1, 3 * i + 2) + Fraction(1, i)
        table[(i, i & 7)] = x
        acc += x.numerator % 97
    return acc + len(table)


class SpeedProbe:
    """Kernel timings taken through a run, and the scale factor they give."""

    def __init__(self) -> None:
        self.times: list[float] = []  # midpoints, ascending
        self.values: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.values.append(end - start)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time around [start, end]."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            def distance(i: int) -> float:
                return max(start - self.times[i], self.times[i] - end, 0.0)

            nearest = sorted(range(len(self.times)), key=distance)[:MIN_SAMPLES]
            return REFERENCE_S / median(self.values[i] for i in nearest)
        return REFERENCE_S / median(self.values[lo:hi])
