"""Host-speed calibration, so timings from a shared host stay comparable.

On a host shared with other tenants the CPU speed a process gets drifts by up
to a factor of two over tens of seconds, and the drift shows in CPU time as
much as in wall time, and differs between the CPUs of one host.  The
reference work is object-heavy like the interpreter's: dict lookups by tuple
keys that are equal but not identical, so every lookup hashes and compares
tuples.  Its slow-down tracks the program's closely; a plain arithmetic loop
under-corrects by a third.  A :class:`Sampler` times that work, in thread
CPU time,
every ``interval`` seconds from one background thread pinned to each CPU the
process may use and, on request, from the calling thread.
:meth:`Sampler.normalise` scales an interval's wall time by ``REFERENCE_S``
over the mean loop time sampled during it: the result is the interval's
duration on a host where the loop takes ``REFERENCE_S`` seconds.  The loop touches nothing of the program, so a faster
or slower program moves the normalised time exactly as it moves wall time.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from typing import Dict, List, Tuple

#: thread CPU seconds of one calibration loop on the reference host
REFERENCE_S = 0.0015
#: entries of the calibration table and lookups per loop
TABLE_ENTRIES = 1_000
LOOKUPS = 12_000
#: samples this far outside an interval still describe it
MARGIN_S = 0.3


def calibration_table() -> Tuple[Dict[Tuple[str, int], int], List[Tuple[str, int]]]:
    """The table and the keys one loop looks up: one key, as distinct tuples."""
    table = {("k", index): index for index in range(TABLE_ENTRIES)}
    key = TABLE_ENTRIES // 2
    return table, [("k", key) for _ in range(LOOKUPS)]


def calibration_loop(table: Dict[Tuple[str, int], int], keys: List[Tuple[str, int]]) -> int:
    total = 0
    for key in keys:
        total += table[key]
    return total


class Sampler:
    """Loop timings ``(perf_counter when taken, thread CPU seconds)``."""

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.table, self.keys = calibration_table()
        self.times: List[float] = []
        self.costs: List[float] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []

    def sample(self) -> None:
        started = time.thread_time()
        calibration_loop(self.table, self.keys)
        cost = time.thread_time() - started
        with self._lock:
            self.times.append(time.perf_counter())
            self.costs.append(cost)

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})
        while not self._stop.wait(self.interval):
            self.sample()

    def start(self) -> "Sampler":
        for cpu in sorted(os.sched_getaffinity(0)):
            thread = threading.Thread(target=self._run, args=(cpu,), name=f"hostspeed-{cpu}", daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()
        self._threads = []

    def normalise(self, started: float, ended: float) -> float:
        """``ended - started`` (``perf_counter`` readings) at reference speed.

        Takes one sample in the calling thread first, so every interval has
        at least one.
        """
        self.sample()
        with self._lock:
            low = bisect.bisect_left(self.times, started - MARGIN_S)
            high = bisect.bisect_right(self.times, ended + MARGIN_S)
            costs = self.costs[low:high]
        return (ended - started) * REFERENCE_S * len(costs) / sum(costs)
