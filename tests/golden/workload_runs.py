"""The benchmark workloads at 1/10 size, each run once per process under
a census of its event instants.

The ``digests`` family (``perf_digests.json``) records, for every
``perf`` workload on seeds 13 and 7, the ``sim_digest`` (sha256 over the
sorted latencies and ``stats.summary()``), the completed count and the
simulator's event count: digests replay, and only the event count may be
refreshed, by a change that names the hops it fused.

``tests/sim/test_pipe_ties.py`` reads the census of the same runs, and
``tests/sim/test_series.py`` how deep the event heap got in them.  It
is taken test-side: deliveries are recognised by wrapping the callback
handed to ``BandwidthPipe.transfer`` and ``BandwidthPipe.transfer_after``
(a core job that hands off to the pipe; with ``then_s``, the one event
is the driver's pickup of a CQ entry, that long after it lands, and is
counted as a delivery at that instant), completions of a closed-form
``Core`` by wrapping the one handed to ``Core.submit``, and every
dispatched event is seen by giving the kernel module a ``heapq`` whose
``heappop`` reports what it popped.  Nothing in ``src/`` knows, and no
simulated number moves.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from functools import lru_cache, partial
from typing import Dict, Iterator, Tuple

from perf.workloads import BY_NAME, WORKLOADS, observe, run, setup
from repro.sim import kernel
from repro.sim.resources import BandwidthPipe, Core

SCALE = 0.1
SEEDS = (13, 7)


class Delivery:
    """A transfer's ``on_done``, remembering which pipe delivers it."""

    __slots__ = ("pipe", "on_done")

    def __init__(self, pipe, on_done):
        self.pipe = pipe
        self.on_done = on_done

    def __call__(self) -> None:
        self.on_done()


class CoreJob:
    """A ``Core`` job's ``on_done``, remembering its core and whether the
    core was still busy when the job was admitted (``queued``): a
    ``Server`` would have pushed that completion only when the job
    started, not at admission."""

    __slots__ = ("core", "queued", "on_done")

    def __init__(self, core, queued, on_done):
        self.core = core
        self.queued = queued
        self.on_done = on_done

    def __call__(self) -> None:
        self.on_done()


def describe(callback, arg) -> str:
    if type(callback) is Delivery:
        return f"delivery of {callback.pipe.name!r}"
    if type(callback) is CoreJob:
        return f"{'queued ' if callback.queued else ''}completion of {callback.core.name!r}"
    owner = getattr(callback, "__self__", None)
    what = getattr(callback, "__qualname__", type(callback).__name__)
    return f"{what} of {getattr(owner, 'name', owner)!r} ({arg!r})"


class Census:
    """Groups dispatched events by instant; keeps the groups in which a
    delivery met anything but deliveries of its own pipe (``ties``), and
    those in which an event scheduled after a queued core completion was
    admitted runs at that completion's instant (``core_ties``: a
    ``Server``, pushing the completion when the job starts, may have
    run that event first).  ``core_shared`` counts the instants a queued
    core completion shares with anything else.  An event is held as its
    ``(callback, arg)`` until its instant closes; only a kept group is
    ever put into words (:meth:`report`).

    ``start_depth`` is the heap's length at the run's first pop (what
    set-up and the generators planted) and ``max_depth`` its longest at
    any pop; :func:`observed` sets ``planted``, the requests the run's
    generators planted, and ``series``, its generators plus its update
    stream."""

    heappush = staticmethod(heapq.heappush)

    def __init__(self):
        self.instant = None
        self.group = []         # (callback, arg) of the current instant
        self.ties = []          # (instant, group)
        self.core_ties = []     # (instant, group)
        self.core_shared = 0
        self.deliveries = 0
        self.events = 0
        self.start_depth = 0    # None: the next pop records its depth
        self.max_depth = 0
        self.planted = 0
        self.series = 0

    def heappop(self, heap):
        depth = len(heap)
        if depth > self.max_depth:
            self.max_depth = depth
        if self.start_depth is None:
            self.start_depth = depth
        event = heapq.heappop(heap)
        time, _seq, callback, arg = event
        if callback is None:                    # cancelled: never dispatched
            return event
        if time != self.instant:
            self.close()
            self.instant = time
        self.events += 1
        if type(callback) is Delivery:
            self.deliveries += 1
        self.group.append((callback, arg))
        return event

    def close(self) -> None:
        group = self.group
        if len(group) > 1 and len({
            callback.pipe if type(callback) is Delivery else None for callback, _ in group
        }) > 1:                                 # a delivery and something else
            self.ties.append((self.instant, group))
        # Events at one instant run in sequence order, so those after a
        # queued completion were scheduled after its admission.
        for i, (callback, _) in enumerate(group):
            if type(callback) is CoreJob and callback.queued:
                if len(group) > 1:
                    self.core_shared += 1
                if any(
                    type(later) is not CoreJob or later.core is not callback.core
                    for later, _ in group[i + 1:]
                ):
                    self.core_ties.append((self.instant, group))
                break
        self.group = []

    def report(self, ties=None) -> str:
        return "\n".join(
            f"t={instant!r}: " + " | ".join(describe(*event) for event in group)
            for instant, group in (self.ties if ties is None else ties)
        )


@contextmanager
def census_installed() -> Iterator[Census]:
    census = Census()
    transfer, transfer_after, submit = (
        BandwidthPipe.transfer, BandwidthPipe.transfer_after, Core.submit
    )
    BandwidthPipe.transfer = lambda pipe, size_bytes, on_done: transfer(
        pipe, size_bytes, Delivery(pipe, on_done)
    )
    BandwidthPipe.transfer_after = (
        lambda pipe, core, service_time, size_bytes, on_done, then_s=0.0: transfer_after(
            pipe, core, service_time, size_bytes, Delivery(pipe, on_done), then_s
        )
    )
    # Busy: the last admitted job ends now or later (at ``now``, its
    # completion may still be due — counted as queued either way).
    Core.submit = lambda core, service_time, on_done: submit(
        core,
        service_time,
        CoreJob(core, core.jobs_started > 0 and core._free_at >= core.sim.now, on_done),
    )
    kernel.heapq = census
    try:
        yield census
    finally:
        BandwidthPipe.transfer, BandwidthPipe.transfer_after, Core.submit = (
            transfer, transfer_after, submit
        )
        kernel.heapq = heapq
        census.close()


@lru_cache(maxsize=None)
def observed(name: str, seed: int) -> Tuple[Dict[str, object], Census]:
    """Set up, run and observe one workload the way ``perf.run`` does,
    under a census; the record and the census it left."""
    with census_installed() as census:
        built = setup(BY_NAME[name], seed, SCALE)
        census.start_depth = None
        run(built)
    census.planted = sum(generator.total_requests for generator in built.generators)
    census.series = len(built.generators) + (built.update_stream is not None)
    seen = observe(built)
    record = {
        "sim_digest": seen.digest,
        "sim_events": built.sim.event_count,
        "completed": seen.completed,
    }
    return record, census


def _record(name: str, seed: int) -> Dict[str, object]:
    return dict(observed(name, seed)[0])


SCENARIOS = {
    f"{workload.name}/seed{seed}": partial(_record, workload.name, seed)
    for workload in WORKLOADS
    for seed in SEEDS
}
