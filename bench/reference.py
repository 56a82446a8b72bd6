"""Timing in reference seconds, steady on a host whose speed keeps changing.

The host this benchmark was written on, a shared 2-vCPU Linux microVM, runs
a fixed piece of Python at a speed that changes by up to 2.5x, in phases
from a few milliseconds to minutes long and different on its two vCPUs.
Raw wall times of one workload therefore spread by 0.13 to 0.33 of their
median over ten runs, whatever the run length.

``SpeedMeter`` reads the host's current speed while a pass runs: every
``INTERVAL_S`` a timer signal interrupts the pass and times ``kernel``, a
fixed few-millisecond piece of pure Python that never imports soficlab.
The kernel's time is taken out of the pass's wall time, and the pass is
also expressed in *reference seconds*: its wall time times the mean speed
during the pass, ``REF_S`` over a kernel reading, averaged over the
readings, which are evenly spaced in time.  When the host slows down, the
pass and the kernel slow down together and the product stays put; a
change to soficlab moves the pass and not the kernel, so it shows in full.

The kernel mixes the two kinds of work the library does: integer
arithmetic in a loop, and a depth-first enumeration that builds tuples and
counts them in a dict (golden-mean words bucketed by a projection, as the
microstate scan does), about half each.

Run this file to print a few kernel readings.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# one reference second's worth of kernel: about the kernel's median reading
# on that microVM (Python 3.11), whose fast and slow phases read about 2.7
# and 6.8 ms, so that reference seconds are close to seconds there
REF_S = 0.004
INTERVAL_S = 0.1  # time between kernel readings while a meter runs
ARITH_N = 24_000
WORD_LEN = 16


def kernel() -> int:
    """The fixed work; returns a checksum so nothing is optimised away."""
    acc = 0
    for i in range(ARITH_N):
        acc += i * i % 7
    buckets = {}
    stack = [()]
    while stack:
        w = stack.pop()
        if len(w) == WORD_LEN:
            key = w[::4]
            buckets[key] = buckets.get(key, 0) + 1
            continue
        stack.append(w + (0,))
        if not w or w[-1] == 0:
            stack.append(w + (1,))
    return acc + len(buckets) + sum(buckets.values())


def reading() -> float:
    """Wall time of one kernel run, with the collector off.

    The collector is off so that the kernel's work does not depend on what
    else the process holds on its heap.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class SpeedMeter:
    """Times a stretch of work in seconds and in reference seconds.

    ``start`` takes a kernel reading and arms a SIGALRM timer that takes
    one every INTERVAL_S; ``stop`` disarms it, takes a last reading and
    returns (seconds, reference seconds) of the work in between, both
    without the kernel's own time.  Use from the main thread only, one
    meter at a time, with no other SIGALRM user.
    """

    def __init__(self):
        self._readings = []
        self._kernel_s = 0.0
        self._t0 = None
        self._previous = None

    def _read(self, *_signal_args):
        t = time.perf_counter()
        self._readings.append(reading())
        self._kernel_s += time.perf_counter() - t

    def start(self) -> None:
        self._readings = []
        self._read()
        self._kernel_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._read)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - self._t0 - self._kernel_s
        signal.signal(signal.SIGALRM, self._previous)
        self._read()
        return seconds, self.to_reference(seconds)

    def to_reference(self, seconds: float) -> float:
        """``seconds`` of work at the mean speed read so far."""
        return seconds * REF_S / statistics.harmonic_mean(self._readings)


if __name__ == "__main__":
    print(" ".join(f"{reading() * 1e3:.2f}" for _ in range(20)), "ms")
