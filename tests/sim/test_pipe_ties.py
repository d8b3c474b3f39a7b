"""The assumption the one-event pipe transfer rests on, as a test.

``BandwidthPipe`` pushes a transfer's delivery when the transfer is
admitted; the staged pipe it replaced pushed it when the bus freed.  The
instant is the same, the place among events of *exactly that instant* is
not — so the simulated numbers are unchanged as long as no delivery
shares its float instant with anything but deliveries of its own pipe
(which stay FIFO either way).  With a 3.2 GB/s link and 1 us of latency
a delivery instant is a sum no flash, firmware or host time lands on;
this runs every benchmark workload at 1/10 size on seeds 13 and 7 and
shows it, event by event.

The census is taken test-side: deliveries are recognised by wrapping the
callback handed to ``BandwidthPipe.transfer``, and every dispatched
event is seen by giving the kernel module a ``heapq`` whose ``heappop``
reports what it popped.  Nothing in ``src/`` knows.
"""

from __future__ import annotations

import heapq

import pytest

from perf.workloads import BY_NAME, run, setup
from repro.sim import kernel
from repro.sim.resources import BandwidthPipe

from ..golden.generate_perf_digests import SCALE, SEEDS


class Delivery:
    """A transfer's ``on_done``, remembering which pipe delivers it."""

    __slots__ = ("pipe", "on_done")

    def __init__(self, pipe, on_done):
        self.pipe = pipe
        self.on_done = on_done

    def __call__(self) -> None:
        self.on_done()


class Census:
    """Groups dispatched events by instant; keeps the groups in which a
    delivery met anything but deliveries of its own pipe."""

    heappush = staticmethod(heapq.heappush)

    def __init__(self):
        self.instant = None
        self.group = []         # (what, delivering pipe or None) of the current instant
        self.ties = []
        self.deliveries = 0
        self.events = 0

    def heappop(self, heap):
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
            self.group.append((f"delivery of {callback.pipe.name!r}", callback.pipe))
        else:
            owner = getattr(callback, "__self__", None)
            what = getattr(callback, "__qualname__", type(callback).__name__)
            self.group.append((f"{what} of {getattr(owner, 'name', owner)!r} ({arg!r})", None))
        return event

    def close(self) -> None:
        pipes = {pipe for _, pipe in self.group}
        if len(pipes) > 1:                      # a delivery and something else
            self.ties.append((self.instant, self.group))
        self.group = []


@pytest.fixture
def census(monkeypatch) -> Census:
    transfer = BandwidthPipe.transfer
    monkeypatch.setattr(
        BandwidthPipe,
        "transfer",
        lambda pipe, size_bytes, on_done: transfer(pipe, size_bytes, Delivery(pipe, on_done)),
    )
    census = Census()
    monkeypatch.setattr(kernel, "heapq", census)
    return census


def test_the_census_sees_a_tie(census):
    sim = kernel.Simulator()
    pipe = BandwidthPipe(sim, bandwidth_bytes_per_s=1e6, latency_s=0.0, name="link")
    other = BandwidthPipe(sim, bandwidth_bytes_per_s=1e6, latency_s=0.0, name="link")
    pipe.transfer(1000, lambda: None)
    pipe.transfer(0, lambda: None)              # same pipe, same instant: FIFO, no tie
    sim.schedule(5e-4, lambda: None)            # alone at its instant
    sim.run()
    census.close()
    assert census.deliveries == 2 and census.events == 3 and not census.ties
    pipe.transfer(1000, lambda: None)
    other.transfer(1000, lambda: None)          # a namesake on another device
    sim.run()
    pipe.transfer(1000, lambda: None)
    sim.schedule(1e-3, lambda: None)
    sim.run()
    census.close()
    assert [len(group) for _, group in census.ties] == [2, 2]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(BY_NAME))
def test_no_delivery_shares_its_instant_with_another_event(census, name, seed):
    built = setup(BY_NAME[name], seed, SCALE)
    run(built)
    census.close()
    assert census.events == built.sim.event_count
    # Every device workload moves commands, data and completions.
    assert (census.deliveries > 0) == (name != "dram_serve")
    report = "\n".join(
        f"t={instant!r}: " + " | ".join(what for what, _ in group)
        for instant, group in census.ties
    )
    assert not census.ties, f"{len(census.ties)} instants shared with a delivery:\n{report}"
