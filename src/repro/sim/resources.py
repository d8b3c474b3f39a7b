"""Queueing resources for the DES kernel.

* :class:`Server` — a one-server priority-FIFO station with per-job
  service times, used for contended hardware (the FTL core, flash dies
  and channel buses).
* :class:`Core` — a one-server, one-priority station admitted in closed
  form (the controller's host-interface core).
* :class:`BandwidthPipe` — a link that serializes transfers (PCIe):
  FIFO occupancy plus propagation latency, in closed form.

Most events of a device run are ``Server`` completions, so a job costs
one Python frame here and none in the kernel: ``submit`` (free server)
and ``_finish`` (hand-off to the next queued job) push the completion
event onto the simulator's heap themselves.  A ``Server`` queues each
priority in its own FIFO, so the hand-off pops the front of the
lowest-numbered non-empty one.  A ``Core`` job and a pipe transfer are
one event each, pushed at admission; a core job that ends in a transfer
(:meth:`BandwidthPipe.transfer_after`) is one event for both, at the
delivery or a fixed delay after it.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable, Deque, Dict, List

from .kernel import _NO_ARG, SimError, Simulator

__all__ = ["Server", "Core", "BandwidthPipe"]

# The last event of a core that has run no job: dispatched before time 0.
_NEVER = [float("-inf")]


class Server:
    """One-server priority-FIFO station.

    Jobs are submitted with an explicit service time; when the server becomes
    free the highest-priority (lowest number), oldest job starts, and its
    completion callback runs when the service time elapses.  Priorities
    model firmware polling loops that refill hardware queues before doing
    deferrable computation (e.g. the FTL schedules flash page requests
    ahead of SLS translation work).  Tracks utilization (``busy_time``)
    and job counts; it keeps no queue-length history.

    Each priority has its own FIFO, holding a queued job as two entries
    (service time, then callback) rather than a tuple, and ``_queues``
    keeps the FIFOs in priority order: lowest number first, FIFO within
    one number, as one heap of ``(priority, seq, ...)`` would order
    them.  A FIFO stays once made, so a server that has seen ``k``
    priorities scans at most ``k`` deques to hand itself on.
    """

    def __init__(self, sim: Simulator, name: str = "server"):
        self.sim = sim
        self.name = name
        self._busy = 0
        queue: Deque = deque()
        self._queue_of: Dict[int, Deque] = {0: queue}
        self._queues: List[Deque] = [queue]       # in priority order
        self.jobs_started = 0
        self.jobs_completed = 0
        self.busy_time = 0.0
        # The completion callback of every job, bound once.
        self._on_finish = self._finish

    # ------------------------------------------------------------------
    def submit(
        self, service_time: float, on_done: Callable[[], None], priority: int = 0
    ) -> None:
        """Enqueue a job needing ``service_time`` seconds of the server;
        ``on_done()`` runs when it completes.  Every job is one start, one
        completion and one completion event, so ``jobs_started -
        jobs_completed == busy`` at every instant."""
        if not service_time >= 0:
            raise SimError(f"negative service time {service_time}")
        if not self._busy:
            self._busy = 1
            self.jobs_started += 1
            self.busy_time += service_time
            # sim.schedule_call(service_time, self._finish, on_done), in
            # this frame.
            sim = self.sim
            sim._seq += 1
            heappush(sim._heap, [sim.now + service_time, sim._seq, self._on_finish, on_done])
        else:
            queue = self._queue_of.get(priority)
            if queue is None:
                queue = self._new_queue(priority)
            queue.append(service_time)
            queue.append(on_done)

    def _new_queue(self, priority: int) -> Deque:
        queue: Deque = deque()
        self._queue_of[priority] = queue
        self._queues = list(map(self._queue_of.get, sorted(self._queue_of)))
        return queue

    def _finish(self, on_done: Callable[[], None]) -> None:
        self.jobs_completed += 1
        for queue in self._queues:
            if queue:
                # The server passes straight to the next queued job:
                # _busy stays as it is.
                service_time = queue.popleft()
                callback = queue.popleft()
                self.jobs_started += 1
                self.busy_time += service_time
                sim = self.sim
                sim._seq += 1
                heappush(sim._heap, [sim.now + service_time, sim._seq, self._on_finish, callback])
                break
        else:
            self._busy = 0
        on_done()

    # ------------------------------------------------------------------
    @property
    def busy(self) -> int:
        return self._busy

    @property
    def queue_length(self) -> int:
        return sum(map(len, self._queues)) // 2

    @property
    def idle(self) -> bool:
        return self._busy == 0 and not any(self._queues)

    def utilization(self) -> float:
        """Fraction of elapsed time the server is busy with the jobs started so far."""
        span = self.sim.now
        if span <= 0:
            return 0.0
        return self.busy_time / span


class Core:
    """A one-server FIFO station whose jobs all have one priority.

    Service times are known on arrival and the queue never reorders, so
    a job's end is known when it is admitted — ``max(now, free_at) +
    service_time``, the float operations :class:`Server` performs when
    the job starts — and ``submit`` pushes the completion itself: one
    event and one frame per job, nothing when the server frees.  The
    completion takes its place among *same-instant* events of other
    resources from the admission rather than from the previous job's
    completion; ``tests/sim/test_pipe_ties.py`` shows that no benchmark
    workload can observe it, and ``tests/sim/test_engine_equivalence.py``
    holds the core to a ``Server``.  ``busy_time`` and ``jobs_started``
    count a job at admission.  A job handed on to a pipe
    (:meth:`BandwidthPipe.transfer_after`) is one event at its delivery,
    or ``then_s`` after it: the core reads busy until the last event its
    jobs pushed — a completion, a delivery or such a later pickup — has
    run.
    """

    def __init__(self, sim: Simulator, name: str = "core"):
        self.sim = sim
        self.name = name
        # When the server finishes the last admitted job.
        self._free_at = sim.now
        # The event of this core's jobs that dispatches last: a
        # completion, or the delivery a completion rides.
        self._last = _NEVER
        self.jobs_started = 0
        self.busy_time = 0.0

    def submit(self, service_time: float, on_done: Callable[[], None]) -> None:
        """Enqueue a job needing ``service_time`` seconds of the server;
        ``on_done()`` runs when it completes."""
        if not service_time >= 0:
            raise SimError(f"negative service time {service_time}")
        self.jobs_started += 1
        self.busy_time += service_time
        sim = self.sim
        now = sim.now
        free_at = self._free_at
        self._free_at = end = (free_at if free_at > now else now) + service_time
        sim._seq += 1
        event = [end, sim._seq, on_done, _NO_ARG]
        heappush(sim._heap, event)
        if end >= self._last[0]:
            self._last = event

    @property
    def idle(self) -> bool:
        """Whether every event this core's jobs pushed has been
        dispatched — false up to and including the instant of the last,
        until it has run."""
        last = self._last
        due = last[0]
        now = self.sim.now
        if due != now:
            return due < now
        return all(event is not last for event in self.sim._heap)


class BandwidthPipe:
    """A link that serializes transfers at a fixed bandwidth plus latency.

    Models one direction of the PCIe link: transfers queue FIFO, each
    occupying the link for ``size / bandwidth`` and completing after an
    additional propagation ``latency`` (latency does not occupy the link).

    One priority, one server and service times known on arrival make the
    whole timeline known when a transfer is admitted, so ``transfer``
    pushes the delivery event itself and nothing runs when the bus frees.
    Every instant is the one a one-server :class:`Server` followed by a
    latency hop would produce (same float operations, same order — the
    staged pipe is kept in ``tests/sim/reference_resources.py``); the
    delivery takes its place among *same-instant* events of other
    resources from the admission rather than from the bus-finish, which
    ``tests/sim/test_pipe_ties.py`` shows no workload can observe.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bytes_per_s: float,
        latency_s: float = 0.0,
        name: str = "pipe",
    ):
        if not bandwidth_bytes_per_s > 0:
            raise SimError(f"bandwidth must be positive, got {bandwidth_bytes_per_s}")
        if not 0 <= latency_s < float("inf"):
            raise SimError(f"latency must be finite and >= 0, got {latency_s}")
        self.sim = sim
        self.name = name
        self.bandwidth = bandwidth_bytes_per_s
        self.latency = latency_s
        # When the bus finishes the last admitted transfer.
        self._free_at = sim.now
        self.busy_time = 0.0
        self.bytes_transferred = 0

    def transfer(self, size_bytes: int, on_done: Callable[[], None]) -> None:
        """Move ``size_bytes`` through the link, then call ``on_done``."""
        if not size_bytes >= 0:
            raise SimError(f"negative transfer size {size_bytes}")
        self.bytes_transferred += size_bytes
        occupancy = size_bytes / self.bandwidth
        self.busy_time += occupancy
        sim = self.sim
        now = sim.now
        free_at = self._free_at
        self._free_at = end = (free_at if free_at > now else now) + occupancy
        sim._seq += 1
        heappush(sim._heap, [end + self.latency, sim._seq, on_done, _NO_ARG])

    def transfer_after(
        self,
        core: Core,
        service_time: float,
        size_bytes: int,
        on_done: Callable[[], None],
        then_s: float = 0.0,
    ) -> float:
        """Run a ``service_time`` job on ``core``, move ``size_bytes``
        through the link when it ends, then call ``on_done`` ``then_s``
        seconds after the delivery — one event, at ``delivery + then_s``
        (the float an event scheduled ``then_s`` ahead from the delivery
        would have).  Returns the delivery instant.

        The job is admitted on ``core`` as :meth:`Core.submit` would, and
        the transfer at the job's end, known now, with the float
        operations ``transfer`` would perform then.  That is exact only
        while every transfer of this pipe enters here from ``core``: the
        pipe then admits in ``core``'s FIFO order, as it would have.
        """
        if not size_bytes >= 0:
            raise SimError(f"negative transfer size {size_bytes}")
        if not service_time >= 0:
            raise SimError(f"negative service time {service_time}")
        core.jobs_started += 1
        core.busy_time += service_time
        sim = self.sim
        now = sim.now
        free_at = core._free_at
        core._free_at = start = (free_at if free_at > now else now) + service_time
        self.bytes_transferred += size_bytes
        occupancy = size_bytes / self.bandwidth
        self.busy_time += occupancy
        free_at = self._free_at
        self._free_at = end = (free_at if free_at > start else start) + occupancy
        delivered = end + self.latency
        sim._seq += 1
        event = [delivered + then_s, sim._seq, on_done, _NO_ARG]
        heappush(sim._heap, event)
        if event[0] >= core._last[0]:
            core._last = event
        return delivered

    def utilization(self) -> float:
        """Fraction of elapsed time the bus is occupied by the transfers
        admitted so far (queued ones count from admission)."""
        span = self.sim.now
        if span <= 0:
            return 0.0
        return self.busy_time / span
