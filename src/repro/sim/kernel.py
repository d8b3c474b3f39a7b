"""Discrete-event simulation kernel.

The kernel is deliberately small: a time-ordered event heap and callback
scheduling.  Every layer above it — flash, FTL, NVMe, drivers, serving —
is written as plain callbacks.

Events are stored as plain ``[time, seq, callback, arg]`` lists so the
heap compares floats/ints in C without calling back into Python — at
serving-scale event counts (millions per run) the comparison function is
the single hottest call otherwise.  ``seq`` is unique, so a comparison
never reaches the callback.  A cancelled event keeps its heap slot with
its callback set to ``None``.

A planned series of events (an open-loop arrival schedule, an update
stream) enters through :meth:`Simulator.schedule_series`: it reserves
the series' sequence numbers at once but keeps only the next event in
the heap, so the heap holds what is in flight, not what is planned.

``Simulator._heap`` and ``Simulator._seq`` are shared with
:mod:`repro.sim.resources`, the other half of the engine: a ``Server``,
a ``Core`` or a ``BandwidthPipe`` pushes its events itself instead of
paying a call into the kernel per job, and a ``Core`` reads the heap to
tell whether its last event has run.  Nothing outside ``repro.sim``
touches them (``tests/test_layering.py``); a layer that needs to know
whether its event is still the newest asks :meth:`Simulator.is_latest`.

Time is a float in **seconds**.  Helpers in :mod:`repro.sim.units` convert
from microseconds/milliseconds.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional, Sequence

from ..params import NonNeg, checked

__all__ = [
    "Simulator",
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

    The handle *is* the heap entry (``[time, seq, callback, arg]``) — no
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


class _Series:
    """A :meth:`Simulator.schedule_series` in progress.  Its one event in
    the heap is ``[times[i], seq + i, self.fire, args[i]]`` and ``next``
    is ``i + 1``; ``fire`` pushes event ``next`` with its reserved key
    before calling ``fn``.  An argument leaves ``args`` when its event is
    pushed, so it is released once the event has fired."""

    __slots__ = ("heap", "times", "seq", "fn", "args", "next")

    def __init__(self, heap: list, times: list, seq: int, fn: Callable[[Any], None], args: list):
        self.heap = heap
        self.times = times
        self.seq = seq
        self.fn = fn
        self.args = args
        heapq.heappush(heap, [times[0], seq, self.fire, args[0]])
        args[0] = None
        self.next = 1

    def fire(self, arg: Any) -> None:
        i = self.next
        if i < len(self.times):
            args = self.args
            heapq.heappush(self.heap, [self.times[i], self.seq + i, self.fire, args[i]])
            args[i] = None
            self.next = i + 1
        self.fn(arg)


class Simulator:
    """Event-driven simulator with a monotonically advancing clock."""

    @checked
    def __init__(self, start_time: NonNeg = 0.0):
        # Current simulated time in seconds.  A plain attribute (reading
        # it is the most frequent operation in a run) that only the
        # kernel writes.
        self.now = float(start_time)
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
    def schedule(self, delay: float, callback: Callable[[], None]) -> ScheduleHandle:
        """Run ``callback`` ``delay`` seconds from now (``delay >= 0``)."""
        if not delay >= 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        event = ScheduleHandle((self.now + delay, self._seq, callback, _NO_ARG))
        heapq.heappush(self._heap, event)
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> ScheduleHandle:
        """Run ``callback`` at absolute simulated ``time``."""
        if not time >= self.now:
            raise SimError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        self._seq += 1
        event = ScheduleHandle((time, self._seq, callback, _NO_ARG))
        heapq.heappush(self._heap, event)
        return event

    def schedule_call(self, delay: float, fn: Callable[[Any], None], arg: Any) -> ScheduleHandle:
        """Like :meth:`schedule`, but runs ``fn(arg)`` — hot paths use this
        to avoid allocating a closure per event.
        """
        if not delay >= 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        event = ScheduleHandle((self.now + delay, self._seq, fn, arg))
        heapq.heappush(self._heap, event)
        return event

    def schedule_series(
        self, times: Sequence[float], fn: Callable[[Any], None], args: Sequence[Any]
    ) -> None:
        """Run ``fn(args[i])`` at each absolute ``times[i]``.

        ``times`` must ascend from ``now``.  The series takes
        ``len(times)`` consecutive sequence numbers now, exactly as that
        many :meth:`schedule_at` calls would, but only its next event is
        in the heap: dispatching event ``i`` pushes event ``i + 1`` with
        its reserved key before calling ``fn``.  Every event keeps the
        ``(time, seq)`` it would have had and is in the heap before
        anything with a later key can run, so dispatch order,
        :meth:`is_latest`, ``event_count`` and :attr:`pending_events` are
        those of scheduling each event eagerly.  Nothing can cancel a
        series.
        """
        times = list(map(float, times))
        args = list(args)
        if len(times) != len(args):
            raise SimError(
                f"series of {len(times)} times has {len(args)} arguments"
            )
        prev = self.now
        for t in times:
            if not t >= prev:
                raise SimError(
                    f"series time {t} is before {prev} (now={self.now})"
                )
            prev = t
        if not times:
            return
        _Series(self._heap, times, self._seq + 1, fn, args)
        self._seq += len(times)

    def is_latest(self, handle: ScheduleHandle) -> bool:
        """Whether nothing has been scheduled since ``handle`` was.

        Events at one instant run in scheduling order, so work appended
        to the latest event's callback runs exactly where an event
        scheduled now, for that same instant, would: no other event can
        sort between them.  (``handle`` may already have run; whether it
        is still pending is the caller's to know.)
        """
        return handle[_SEQ] == self._seq

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
            self.now = event[_TIME]
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

        Returns the simulated time at which execution stopped.  ``until``
        may not lie before ``now``: the clock never rewinds.
        """
        if self._running:
            raise SimError("simulator is not reentrant")
        if until is not None and until < self.now:
            raise SimError(f"cannot run until {until} before current time {self.now}")
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
                    self.now = until
                    break
                pop(heap)
                self.now = head[_TIME]
                self.event_count += 1
                arg = head[_ARG]
                if arg is _NO_ARG:
                    callback()
                else:
                    callback(arg)
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
        return self.now

    def run_until(self, predicate: Callable[[], bool], limit: float = float("inf")) -> float:
        """Run until ``predicate()`` is true (checked after each event).

        Events run while ``now <= limit`` (the one that crosses it still
        executes).  Raises :class:`SimError` if the predicate never held,
        saying whether the heap drained or ``limit`` stopped the run.
        """
        if predicate():
            return self.now
        heap = self._heap
        pop = heapq.heappop
        while heap and self.now <= limit:
            event = pop(heap)
            callback = event[_CALLBACK]
            if callback is None:
                continue
            self.now = event[_TIME]
            self.event_count += 1
            arg = event[_ARG]
            if arg is _NO_ARG:
                callback()
            else:
                callback(arg)
            if predicate():
                return self.now
        if predicate():
            return self.now
        pending = self.pending_events
        why = "limit reached" if pending else "event heap drained"
        raise SimError(
            f"run_until: {why} before predicate held "
            f"(now={self.now}, limit={limit}, pending_events={pending})"
        )

    @property
    def pending_events(self) -> int:
        """Events that will still run: live heap entries, plus the events
        of each series that are not in the heap yet."""
        pending = 0
        for event in self._heap:
            callback = event[_CALLBACK]
            if callback is None:
                continue
            pending += 1
            series = getattr(callback, "__self__", None)
            if type(series) is _Series:
                pending += len(series.times) - series.next
        return pending
