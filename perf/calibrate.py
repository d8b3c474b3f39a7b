"""A machine-speed probe, so host times read the same on a slow minute.

The sandboxes this benchmark runs in are shared, and their speed drifts by
20–30 % over seconds to minutes: the fastest of three repetitions of one
deterministic workload moved from 2.0 s to 2.3 s between two ten-run sets
minutes apart, and CPU time drifted with wall time.  Nothing measured
about the workload alone can tell a slow minute from a slow program.

So while a repetition runs, a timer signal fires every ``PERIOD_S`` and
times one pass of a fixed pure-Python kernel (heap of lists, dict, slotted
objects: what the simulator's inner loop does).  The kernel passes are
taken out of the repetition's time, and the rest is reported **at
reference speed**: seconds x ``REFERENCE_S / median kernel seconds of that
repetition``.  On 30 windows of 3 repetitions this brought the run-to-run
spread (IQR / median) from 0.12 for the fastest raw repetition down to
0.05; probing only between repetitions reached 0.08.

The kernel never changes and imports nothing from ``repro``, so a change
to the simulator moves the measured seconds and not the yardstick.  It
costs about 4 % of the run, the same on every commit.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import List, Tuple

__all__ = ["REFERENCE_S", "PERIOD_S", "SpeedProbe"]

# What one kernel pass took, between simulator events, on the sandbox the
# baseline was recorded on in a quiet minute.  It only fixes the unit: at
# speed 1.0 calibrated seconds are plain seconds.
REFERENCE_S = 0.003
PERIOD_S = 0.1
MIN_SAMPLES = 3


class _Job:
    __slots__ = ("key", "cost", "done")

    def __init__(self, key: int):
        self.key = key
        self.cost = key * 2
        self.done = None


def _kernel() -> int:
    heap: list = []
    by_key: dict = {}
    for i in range(3000):
        job = _Job(i)
        heapq.heappush(heap, [((i * 7919) % 10007) * 1e-6, i, job, None])
        by_key[i % 997] = job
    total = 0
    while heap:
        total += heapq.heappop(heap)[2].cost
    return total


class SpeedProbe:
    """Times the kernel every ``PERIOD_S`` on ``SIGALRM`` while entered.

    Main thread only (Python runs signal handlers there, between two
    bytecodes; a call into C finishes first).
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []   # (start, seconds)
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append((start, time.perf_counter() - start))

    def kernel_seconds(self, start: float, end: float) -> List[float]:
        """The kernel passes that began in ``[start, end)``."""
        return [seconds for began, seconds in self.samples if start <= began < end]

    def speed(self, start: float, end: float) -> float:
        """Machine speed over ``[start, now)``: 1.0 on the reference
        machine, below it on a slower one.  An interval too short for the
        timer gets its passes made up on the spot."""
        while len(self.kernel_seconds(start, end)) < MIN_SAMPLES:
            self._tick()
            end = time.perf_counter()
        return REFERENCE_S / statistics.median(self.kernel_seconds(start, end))
