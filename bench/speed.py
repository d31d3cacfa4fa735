"""How fast the machine runs while a workload is timed.

The benchmark's host shares its cores with other tenants, and its speed moves
in steps of up to 50% that last from seconds to minutes: the same pass took
2.6 s and then 4.0 s a minute later, with CPU time tracking wall time, so it
is the cores that slow down, not the scheduler that withholds them. Raw wall
times from different minutes are therefore not comparable.

``SpeedProbe`` times a fixed kernel every PERIOD_S seconds (SIGALRM) while the
process runs, on the same core and in the same moments as the workload. The
kernel is a frozen copy of the package's hot path at the commit that added the
benchmark, a bisection on the closed-form Rayleigh guarantee, so it slows down
as the workload does; it lives here, so optimizing the package never changes
it. ``factor()`` is REFERENCE_S over the kernel's mean time in an interval,
with the fastest and slowest tenth of the samples dropped: a time multiplied
by it is the time at the reference speed. A mean, because a pass's time adds
up the slow and fast moments alike; over 77 repeated passes, scaling by the
trimmed mean cut the spread from 30% (raw) to 5%, and by the median to 11%.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

PERIOD_S = 0.05
# Kernel time while nash-300m-80 passes take their usual 9 s on a 2.1 GHz
# Xeon guest. It only sets the scale: times at reference speed are
# comparable with each other, and near raw times when the host is at ease.
REFERENCE_S = 0.00028
_LN2 = math.log(2.0)


def _guarantee(rate: float, bw: float, noise_over_power: float) -> float:
    t = rate / bw * _LN2
    return math.exp(-(math.exp(t) - 1.0) * bw * noise_over_power)


def _invert(rate: float, target: float, noise_over_power: float) -> float:
    lo = hi = rate
    while _guarantee(rate, hi, noise_over_power) <= target:
        hi *= 2.0
    while _guarantee(rate, lo, noise_over_power) > target:
        lo *= 0.5
    while hi - lo > 1e-11 * hi:
        mid = 0.5 * (lo + hi)
        if _guarantee(rate, mid, noise_over_power) > target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def kernel_time() -> float:
    t0 = time.perf_counter()
    for k in range(20):
        _invert(7e6, 0.5 + 0.02 * k, 1e-8)
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples kernel_time() every PERIOD_S seconds until stopped."""

    def __init__(self) -> None:
        self.times: list[float] = []  # perf_counter at the end of each sample
        self.samples: list[float] = []

    def _sample(self, *_) -> None:
        self.samples.append(kernel_time())
        self.times.append(time.perf_counter())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, begin: float, end: float) -> float:
        """REFERENCE_S over the trimmed mean kernel time between two
        perf_counter readings; an interval without samples takes one now."""
        lo = bisect.bisect_left(self.times, begin)
        hi = bisect.bisect_right(self.times, end)
        return REFERENCE_S / trimmed_mean(self.samples[lo:hi] or [kernel_time()])


def trimmed_mean(samples: list[float]) -> float:
    """Mean without the lowest and highest tenth."""
    ordered = sorted(samples)
    k = len(ordered) // 10
    return statistics.fmean(ordered[k:len(ordered) - k])
