"""A machine-speed probe, so that times can be reported in reference seconds.

On a 2-core x86-64 virtual machine shared with other tenants the processor's
speed changed by 15-30 % from one minute to the next, and a run's times
drifted with it; no number of passes averages that out.  The probe times a
fixed pure-Python kernel (a sparse dict-of-tuples product of about 1 ms, the
same kind of work as foamlab's polynomial arithmetic, and foamlab-free) from
a ``SIGALRM`` timer every ``PERIOD`` seconds, in the main thread between
bytecodes.  An interval is then reported as

    reference seconds = (interval - probe ticks inside it) * mean(K_REF / k)

over the kernel times ``k`` of the ticks within ``WINDOW`` seconds of the
interval: the time the interval would take on a machine where the kernel
takes ``K_REF``.  The mean of the speeds ``K_REF / k``, not a median, is
used because a slow phase or a preemption that hits a tick hits the work
around it in the same proportion.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

K_REF = 1e-3
PERIOD = 0.025
WINDOW = 0.1

_INPUT = {(i, j): i * j + 1 for i in range(8) for j in range(8)}


def kernel_time() -> float:
    t0 = time.perf_counter()
    out: dict = {}
    for (a1, a2), ca in _INPUT.items():
        for (b1, b2), cb in _INPUT.items():
            e = (a1 + b1, a2 + b2)
            out[e] = out.get(e, 0) + ca * cb
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager that samples the kernel while it is active."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel: list[float] = []
        self._busy = False
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:  # a tick that arrives while one runs is dropped
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            k = kernel_time()
            self.starts.append(t0)
            self.kernel.append(k)
            self.ends.append(time.perf_counter())
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def reference(self, a: float, b: float) -> tuple[float, float]:
        """(seconds, reference seconds) spent in ``[a, b]`` outside the probe."""
        i, j = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        seconds = b - a - sum(self.ends[x] - self.starts[x] for x in range(i, j))
        lo = bisect.bisect_left(self.starts, a - WINDOW)
        hi = bisect.bisect_left(self.starts, b + WINDOW)
        ks = self.kernel[lo:hi] or self.kernel[max(0, lo - 1): lo + 1]
        return seconds, seconds * statistics.fmean(K_REF / k for k in ks)
