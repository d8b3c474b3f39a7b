"""Discrete-event simulation kernel.

The kernel is deliberately small: a time-ordered event heap, callback
scheduling, and generator-based processes for control-heavy logic.  Hot
paths (per-flash-page operations) use plain callbacks to keep Python
overhead low; background loops (FTL polling, drivers) use processes.

Events are stored as plain ``[time, seq, callback]`` lists so the heap
compares floats/ints in C without calling back into Python — at
serving-scale event counts (millions per run) the comparison function is
the single hottest call otherwise.  A cancelled event keeps its heap slot
with its callback set to ``None``.

Time is a float in **seconds**.  Helpers in :mod:`repro.sim.units` convert
from microseconds/milliseconds.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional, Sequence

__all__ = [
    "Simulator",
    "Process",
    "Signal",
    "Timeout",
    "SimError",
    "ScheduleHandle",
]

# Event layout: [time, seq, callback, arg]; callback is None once
# cancelled, arg is _NO_ARG for plain thunks.
_TIME = 0
_SEQ = 1
_CALLBACK = 2
_ARG = 3

_NO_ARG = object()


class SimError(RuntimeError):
    """Raised for invalid simulator usage (e.g. scheduling in the past)."""


class ScheduleHandle(list):
    """A scheduled event; returned by :meth:`Simulator.schedule`.

    The handle *is* the heap entry (``[time, seq, callback]``) — no
    wrapper allocation per event.  ``list`` ordering keeps heap
    comparisons in C.
    """

    __slots__ = ()

    def cancel(self) -> None:
        self[_CALLBACK] = None

    @property
    def time(self) -> float:
        return self[_TIME]

    @property
    def cancelled(self) -> bool:
        return self[_CALLBACK] is None


class Simulator:
    """Event-driven simulator with a monotonically advancing clock."""

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: list[list] = []
        self._seq = 0
        self._running = False
        self.event_count = 0
        # Observability hook (see repro.obs.tracer): None means tracing
        # is off and every instrumentation site short-circuits on one
        # attribute load.  A plain attribute — not an import — so the
        # kernel stays free of upward dependencies.
        self.tracer = None

    # ------------------------------------------------------------------
    # Clock and scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> ScheduleHandle:
        """Run ``callback`` ``delay`` seconds from now (``delay >= 0``)."""
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> ScheduleHandle:
        """Run ``callback`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        self._seq += 1
        event = ScheduleHandle((time, self._seq, callback, _NO_ARG))
        heapq.heappush(self._heap, event)
        return event

    def schedule_call(self, delay: float, fn: Callable[[Any], None], arg: Any) -> ScheduleHandle:
        """Like :meth:`schedule`, but runs ``fn(arg)`` — hot paths use this
        to avoid allocating a closure per event (one ``Server`` job each).
        """
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_call_at(self._now + delay, fn, arg)

    def schedule_call_at(self, time: float, fn: Callable[[Any], None], arg: Any) -> ScheduleHandle:
        """Absolute-time form of :meth:`schedule_call`."""
        if time < self._now:
            raise SimError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        self._seq += 1
        event = ScheduleHandle((time, self._seq, fn, arg))
        heapq.heappush(self._heap, event)
        return event

    def schedule_batch(
        self, times: Sequence[float], callbacks: Sequence[Callable[[], None]]
    ) -> None:
        """Bulk-schedule ``callbacks[i]`` at absolute ``times[i]``.

        ``times`` must be ascending (callers hold pre-sorted per-batch
        timelines, e.g. one flash die group's page completions) and not in
        the past.  When the heap is empty the sorted batch *is* a valid
        heap and is installed in one pass; otherwise events are pushed
        individually, still without per-event Python wrappers, handle
        allocation, or revalidation.
        """
        n = len(times)
        if n == 0:
            return
        if len(callbacks) != n:
            raise SimError("schedule_batch: times/callbacks length mismatch")
        if times[0] < self._now:
            raise SimError(
                f"cannot schedule at {times[0]} before current time {self._now}"
            )
        seq = self._seq
        heap = self._heap
        if heap:
            push = heapq.heappush
            prev = times[0]
            for i in range(n):
                t = times[i]
                if t < prev:
                    raise SimError("schedule_batch: times must be ascending")
                prev = t
                seq += 1
                push(heap, [t, seq, callbacks[i], _NO_ARG])
        else:
            prev = times[0]
            for i in range(n):
                t = times[i]
                if t < prev:
                    raise SimError("schedule_batch: times must be ascending")
                prev = t
                seq += 1
                heap.append([t, seq, callbacks[i], _NO_ARG])
        self._seq = seq

    def call_soon(self, callback: Callable[[], None]) -> ScheduleHandle:
        """Run ``callback`` at the current time, after pending same-time events."""
        return self.schedule(0.0, callback)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event.  Returns False when the heap is empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            callback = event[_CALLBACK]
            if callback is None:
                continue
            self._now = event[_TIME]
            self.event_count += 1
            arg = event[_ARG]
            if arg is _NO_ARG:
                callback()
            else:
                callback(arg)
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event heap drains or ``until`` is reached.

        Returns the simulated time at which execution stopped.
        """
        if self._running:
            raise SimError("simulator is not reentrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                head = heap[0]
                callback = head[_CALLBACK]
                if callback is None:
                    pop(heap)
                    continue
                if until is not None and head[_TIME] > until:
                    self._now = until
                    break
                pop(heap)
                self._now = head[_TIME]
                self.event_count += 1
                arg = head[_ARG]
                if arg is _NO_ARG:
                    callback()
                else:
                    callback(arg)
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
        return self._now

    def run_until(self, predicate: Callable[[], bool], limit: float = float("inf")) -> float:
        """Run until ``predicate()`` is true (checked after each event).

        Events run while ``now <= limit`` (the one that crosses it still
        executes).  Raises :class:`SimError` if the predicate never held,
        saying whether the heap drained or ``limit`` stopped the run.
        """
        if predicate():
            return self._now
        heap = self._heap
        pop = heapq.heappop
        while heap and self._now <= limit:
            event = pop(heap)
            callback = event[_CALLBACK]
            if callback is None:
                continue
            self._now = event[_TIME]
            self.event_count += 1
            arg = event[_ARG]
            if arg is _NO_ARG:
                callback()
            else:
                callback(arg)
            if predicate():
                return self._now
        if predicate():
            return self._now
        pending = self.pending_events
        why = "limit reached" if pending else "event heap drained"
        raise SimError(
            f"run_until: {why} before predicate held "
            f"(now={self._now}, limit={limit}, pending_events={pending})"
        )

    @property
    def pending_events(self) -> int:
        return sum(1 for e in self._heap if e[_CALLBACK] is not None)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def process(self, generator: Generator[Any, Any, Any]) -> "Process":
        """Start a generator-based process.

        The generator may yield:
          * ``Timeout(dt)`` — resume after ``dt`` simulated seconds,
          * ``Signal`` — resume when the signal fires (receiving its value),
          * another ``Process`` — resume when that process terminates.
        """
        proc = Process(self, generator)
        self.call_soon(proc._resume_first)
        return proc


class Timeout:
    """Yielded by a process to sleep for ``delay`` seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise SimError(f"negative timeout {delay}")
        self.delay = delay


class Signal:
    """A one-to-many wakeup primitive.

    Processes or callbacks wait on the signal; :meth:`fire` wakes all current
    waiters with an optional value.  Signals may fire repeatedly.
    """

    __slots__ = ("_sim", "_waiters", "name")

    def __init__(self, sim: Simulator, name: str = "signal"):
        self._sim = sim
        self._waiters: list[Callable[[Any], None]] = []
        self.name = name

    def wait(self, callback: Callable[[Any], None]) -> None:
        self._waiters.append(callback)

    def fire(self, value: Any = None) -> None:
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter(value)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)


class Process:
    """A running generator-based process (see :meth:`Simulator.process`)."""

    __slots__ = ("_sim", "_gen", "alive", "result", "_done_signal")

    def __init__(self, sim: Simulator, gen: Generator[Any, Any, Any]):
        self._sim = sim
        self._gen = gen
        self.alive = True
        self.result: Any = None
        self._done_signal = Signal(sim, "process-done")

    def _resume_first(self) -> None:
        self._advance(None)

    def _advance(self, value: Any) -> None:
        if not self.alive:
            return
        try:
            yielded = self._gen.send(value)
        except StopIteration as stop:
            self.alive = False
            self.result = stop.value
            self._done_signal.fire(stop.value)
            return
        self._dispatch(yielded)

    def _dispatch(self, yielded: Any) -> None:
        if isinstance(yielded, Timeout):
            self._sim.schedule(yielded.delay, lambda: self._advance(None))
        elif isinstance(yielded, Signal):
            yielded.wait(self._advance)
        elif isinstance(yielded, Process):
            if yielded.alive:
                yielded._done_signal.wait(self._advance)
            else:
                self._sim.call_soon(lambda: self._advance(yielded.result))
        else:
            raise SimError(f"process yielded unsupported object {yielded!r}")

    def join(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(result)`` when the process terminates."""
        if self.alive:
            self._done_signal.wait(callback)
        else:
            self._sim.call_soon(lambda: callback(self.result))


def drain(sim: Simulator, processes: Iterable[Process]) -> None:
    """Run the simulator until every process in ``processes`` has finished."""
    procs = list(processes)
    sim.run_until(lambda: all(not p.alive for p in procs))
