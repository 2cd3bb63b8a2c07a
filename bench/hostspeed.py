"""Host-speed calibration of the benchmark's timings.

The benchmark runs on shared virtual machines whose speed, as one process
sees it, moves between states up to about 1.5x apart that last from seconds
to minutes.  Raw timings of the same code on the same input then differ by
that much from one run to the next, far more than any useful regression
bound.  A sampler measures the host's speed while the workload runs, and
timings are reported at one fixed reference speed.

Every ``INTERVAL`` seconds of wall time a SIGALRM handler, running in the
benchmark's one thread between two bytecodes of the workload, times a fixed
reference loop (dict lookups and integer arithmetic; it allocates nothing,
so it never triggers the garbage collector).  A timing over an interval
``[t0, t1]`` is multiplied by ``REF_S`` divided by the median reference time
sampled inside it: the result is the time the same work would take on a host
where the reference loop takes ``REF_S``.  The handler's own time is
recorded so callers can subtract it.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from array import array

INTERVAL = 0.1
REF_S = 250e-6  # the reference loop's time on the calibrated host
_TABLE = {i: (i * 7919) & 1023 for i in range(1024)}


def reference_loop(n: int = 2000) -> int:
    table, acc = _TABLE, 0
    for i in range(n):
        acc = (acc + table[(i * 31 + acc) & 1023]) & 0xFFFF
    return acc


class HostSpeed:
    def __init__(self):
        self.at = array("d")  # start of each reference sample
        self.took = array("d")  # its duration
        self.busy = 0.0  # total time spent in the handler

    def sample(self, *_signal_args) -> float:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.busy += time.perf_counter() - t0
        return t1 - t0

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, t0: float, t1: float) -> float:
        """REF_S over the median reference time sampled in [t0, t1]; an
        interval too short to hold a sample uses the nearest one."""
        inside = [d for t, d in zip(self.at, self.took) if t0 <= t <= t1]
        if inside:
            return REF_S / statistics.median(inside)
        if not self.took:
            self.sample()
        middle = (t0 + t1) / 2
        nearest = min(range(len(self.at)), key=lambda i: abs(self.at[i] - middle))
        return REF_S / self.took[nearest]
