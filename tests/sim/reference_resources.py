"""The parent commit's ``Server`` and ``BandwidthPipe``, kept verbatim.

Reference implementations the engine tests compare against (as
``tests/workload/test_completion_signal.py`` keeps the polling loop):
every job walks ``submit -> _start -> schedule_call -> schedule_call_at``
and every pipe latency hop is a lambda that calls ``sim.schedule``.
``repro.sim.resources`` must dispatch the same callbacks at the same
instants in the same order, take the same event sequence numbers and
raise on the same inputs; ``test_engine_equivalence.py`` holds it to
that.  ``TimeWeightedStat`` rides along only because the old ``Server``
records its queue length into one.

Copied from commit 0223ff88fd73affb5599567aee3113458b2733aa; do not edit
to follow ``src/``.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.sim.kernel import SimError, Simulator

__all__ = ["Server", "BandwidthPipe"]


class TimeWeightedStat:
    """Time-weighted average of a piecewise-constant quantity (queue length)."""

    def __init__(self, sim) -> None:
        self._sim = sim
        self._last_time = sim.now
        self._last_value = 0.0
        self._weighted_sum = 0.0
        self._start = sim.now

    def record(self, value: float) -> None:
        now = self._sim.now
        self._weighted_sum += self._last_value * (now - self._last_time)
        self._last_time = now
        self._last_value = value

    def mean(self) -> float:
        now = self._sim.now
        span = now - self._start
        if span <= 0:
            return self._last_value
        total = self._weighted_sum + self._last_value * (now - self._last_time)
        return total / span


class Server:
    """Priority-FIFO station with ``capacity`` parallel servers.

    Jobs are submitted with an explicit service time; when a server becomes
    free the highest-priority (lowest number), oldest job starts, and its
    completion callback runs when the service time elapses.  Priorities
    model firmware polling loops that refill hardware queues before doing
    deferrable computation (e.g. the FTL schedules flash page requests
    ahead of SLS translation work).  Tracks utilization and queue stats.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "server"):
        if capacity < 1:
            raise SimError(f"server capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._busy = 0
        self._heap: list[tuple[int, int, float, Callable[[], None]]] = []
        self._seq = 0
        self.jobs_started = 0
        self.jobs_completed = 0
        self.busy_time = 0.0
        self.queue_len_stat = TimeWeightedStat(sim)

    # ------------------------------------------------------------------
    def submit(
        self,
        service_time: float,
        on_done: Callable[[], None],
        priority: int = 0,
        on_start: Optional[Callable[[], Optional[float]]] = None,
    ) -> None:
        """Enqueue a job needing ``service_time`` seconds of a server.

        ``on_start`` (if given) runs at the instant the job claims a
        server and may return an absolute completion time overriding
        ``now + service_time`` — aggregate chain jobs (the batched flash
        read path) use it to pin the server-free instant to a
        sequentially-accumulated timeline, keeping float results
        bit-identical to per-job submission.  An end time computed at
        submit time is stale once the job has waited in the queue, so
        ``on_start`` jobs must start immediately (callers check
        ``idle``); queueing one is an error.
        """
        if service_time < 0:
            raise SimError(f"negative service time {service_time}")
        if self._busy < self.capacity:
            self._start(service_time, on_done, on_start)
        elif on_start is not None:
            raise SimError("on_start jobs must be submitted to a free server")
        else:
            self._seq += 1
            heapq.heappush(self._heap, (priority, self._seq, service_time, on_done))
            self.queue_len_stat.record(len(self._heap))

    def _start(
        self,
        service_time: float,
        on_done: Callable[[], None],
        on_start: Optional[Callable[[], Optional[float]]] = None,
    ) -> None:
        self._busy += 1
        self.jobs_started += 1
        self.busy_time += service_time
        if on_start is None:
            self.sim.schedule_call(service_time, self._finish, on_done)
            return
        # on_start may return an authoritative absolute end time (chains
        # accumulate it in scalar float order).
        end = on_start()
        if end is None:
            self.sim.schedule_call(service_time, self._finish, on_done)
        else:
            self.sim.schedule_call_at(end, self._finish, on_done)

    def _finish(self, on_done: Callable[[], None]) -> None:
        self._busy -= 1
        self.jobs_completed += 1
        if self._heap:
            _prio, _seq, service_time, callback = heapq.heappop(self._heap)
            self.queue_len_stat.record(len(self._heap))
            self._start(service_time, callback)
        on_done()

    # ------------------------------------------------------------------
    @property
    def busy(self) -> int:
        return self._busy

    @property
    def queue_length(self) -> int:
        return len(self._heap)

    @property
    def idle(self) -> bool:
        return self._busy == 0 and not self._heap

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of server-seconds spent busy over ``elapsed`` seconds."""
        span = self.sim.now if elapsed is None else elapsed
        if span <= 0:
            return 0.0
        return self.busy_time / (span * self.capacity)


class BandwidthPipe:
    """A link that serializes transfers at a fixed bandwidth plus latency.

    Models a PCIe link or a flash-channel bus: transfers queue FIFO, each
    occupying the link for ``size / bandwidth`` and completing after an
    additional propagation ``latency`` (latency does not occupy the link).
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bytes_per_s: float,
        latency_s: float = 0.0,
        name: str = "pipe",
    ):
        if bandwidth_bytes_per_s <= 0:
            raise SimError("bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.bandwidth = bandwidth_bytes_per_s
        self.latency = latency_s
        self._server = Server(sim, capacity=1, name=f"{name}.bus")
        self.bytes_transferred = 0

    def transfer(self, size_bytes: int, on_done: Callable[[], None]) -> None:
        """Move ``size_bytes`` through the link, then call ``on_done``."""
        if size_bytes < 0:
            raise SimError(f"negative transfer size {size_bytes}")
        self.bytes_transferred += size_bytes
        occupancy = size_bytes / self.bandwidth
        if self.latency > 0:
            latency = self.latency
            sim = self.sim
            self._server.submit(occupancy, lambda: sim.schedule(latency, on_done))
        else:
            self._server.submit(occupancy, on_done)

    @property
    def queue_length(self) -> int:
        return self._server.queue_length

    def utilization(self) -> float:
        return self._server.utilization()
