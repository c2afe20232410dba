"""Machine-speed sampling, so timings do not follow the host's load.

The benchmark runs on shared virtual cores whose speed swings: over tens of
seconds the same pass can take 6 s or 9 s, with nothing changed.  A reference
loop, written here and independent of semih1, is timed every ``PERIOD``
seconds by an interval-timer signal, also while an op runs.  Each measured
interval is then scaled by ``REFERENCE_S / (harmonic mean duration of the
samples taken in and around it, at least WINDOW of them)``, after removing
the samples' own time.  With samples evenly spaced in time, the harmonic
mean is the average speed over the interval; it also gives little weight to
one descheduled sample: four samples of 0.4 ms and one stalled to 4 ms read
as 0.49 ms, where their arithmetic mean reads 1.1 ms.  The result is the
interval's duration at the speed where the reference loop takes
``REFERENCE_S`` seconds: about the speed of an unloaded core of the 2-vCPU
Xeon machine the baseline was measured on.  Over eight ``ladder`` runs on a
loaded host the raw pass walls spread 0.21 (quartile distance over median)
and the scaled ones 0.04.
"""

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.05
REFERENCE_S = 0.0004
WINDOW = 5


def reference_loop():
    """Fixed exact-rational work of the kind semih1 spends its time on."""
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i % 13 + 1)
    return total


class SpeedSampler:
    """Times ``reference_loop`` every PERIOD seconds while it is entered."""

    def __init__(self):
        self.times = []
        self.durations = []
        self._previous = None
        self._busy = False

    def _sample(self, signum=None, frame=None):
        if self._busy:  # a tick during a stalled sample; keep times sorted
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            reference_loop()
            self.times.append(t0)
            self.durations.append(time.perf_counter() - t0)
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, t0, t1):
        """Duration of [t0, t1] at reference speed, the samples' time removed."""
        n = len(self.times)
        lo = bisect.bisect_left(self.times, t0 - PERIOD)
        hi = bisect.bisect_right(self.times, t1 + PERIOD)
        missing = WINDOW - (hi - lo)
        if missing > 0:  # widen to WINDOW samples, centred on the interval
            lo = max(0, lo - (missing + 1) // 2)
            hi = min(n, lo + WINDOW)
            lo = max(0, hi - WINDOW)
        inside = sum(d for t, d in zip(self.times[lo:hi], self.durations[lo:hi])
                     if t0 <= t <= t1)
        speed = statistics.harmonic_mean(self.durations[lo:hi])
        return (t1 - t0 - inside) * REFERENCE_S / speed
