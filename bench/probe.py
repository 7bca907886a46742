"""A probe of the machine's speed while the library runs.

On a shared host the same code runs up to nearly 2x slower in phases that
can last a whole run, so a round's wall time alone measures the host as
much as the program.  The probe runs on a thread of its own, on the
processor the library runs on: every PERIOD_S it times burst(), a fixed
piece of pure-Python work that calls no library code.  A round's wall
time divided by the median burst time during that round, times
REFERENCE_BURST_S, is the round's time at the reference speed; a change
to the program moves it, a slow phase of the host moves the round and
the bursts together and leaves it.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PERIOD_S = 0.05
# a burst time near this host's usual one, so scaled times read as seconds
REFERENCE_BURST_S = 0.0008


# larger than a processor's own caches, so the scattered updates below
# feel the contention for the shared cache and memory that slows the
# library's larger tables
_SCATTER = bytearray(1 << 22)


def burst():
    """Integer arithmetic and dict stores, then scattered byte updates over
    4 MB; about 0.8 ms when the host runs fast."""
    total = 0
    table = {}
    for i in range(3000):
        total += (i * i) % 7
        table[i & 1023] = total
    buf, mask = _SCATTER, len(_SCATTER) - 1
    for i in range(2000):
        j = (i * 2654435761) & mask
        buf[j] = (buf[j] + 1) & 255
    return total


class SpeedProbe:
    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _loop(self):
        clock = time.perf_counter
        while not self._stop.wait(PERIOD_S):
            t0 = clock()
            burst()
            self.samples.append(clock() - t0)

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        self._thread.join()

    def mark(self) -> int:
        return len(self.samples)

    def median_since(self, marks) -> float | None:
        """Median burst time over the sample ranges [start, end) in marks."""
        picked = [s for start, end in marks for s in self.samples[start:end]]
        return statistics.median(picked) if picked else None


def pin_to_one_cpu() -> int:
    """Keep this process, the threads it starts after this call and the
    processes it spawns on one processor, so that the bursts time the
    processor the library runs on: the two processors of a shared host
    are slowed apart."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def burst_median(count: int = 40) -> float:
    """Median time of `count` bursts run here, on the calling thread."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        burst()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_reference_speed(seconds: float, burst_s: float) -> float:
    return seconds * REFERENCE_BURST_S / burst_s
