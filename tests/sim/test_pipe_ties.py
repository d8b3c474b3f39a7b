"""The assumption the one-event pipe transfer rests on, as a test.

``BandwidthPipe`` pushes a transfer's delivery when the transfer is
admitted; the staged pipe it replaced pushed it when the bus freed.  The
instant is the same, the place among events of *exactly that instant* is
not — so the simulated numbers are unchanged as long as no delivery
shares its float instant with anything but deliveries of its own pipe
(which stay FIFO either way).  With a 3.2 GB/s link and 1 us of latency
a delivery instant is a sum no flash, firmware or host time lands on;
this reads the census of every benchmark workload's 1/10-size run on
seeds 13 and 7 (``tests/golden/workload_runs.py``, the same runs the
digest replay reads) and shows it, event by event.  A core job that
hands off to the device-to-host link (``transfer_after``) is one such
delivery.

The closed-form ``Core`` rests on the same kind of assumption: it
pushes a queued job's completion at admission, where a ``Server`` pushed
it when the job started.  So no event scheduled after a queued
completion was admitted may run at that completion's instant; events
scheduled before it run first either way.
"""

from __future__ import annotations

import pytest

from perf.workloads import BY_NAME
from repro.sim import kernel
from repro.sim.resources import BandwidthPipe, Core

from ..golden.workload_runs import SEEDS, census_installed, observed


def test_the_census_sees_a_tie():
    """A delivery meeting another pipe's delivery, or any other event, is
    a tie, and the report names both events."""
    with census_installed() as census:
        sim = kernel.Simulator()
        pipe = BandwidthPipe(sim, bandwidth_bytes_per_s=1e6, latency_s=0.0, name="link")
        other = BandwidthPipe(sim, bandwidth_bytes_per_s=1e6, latency_s=0.0, name="link")
        pipe.transfer(1000, lambda: None)
        pipe.transfer(0, lambda: None)          # same pipe, same instant: FIFO, no tie
        sim.schedule(5e-4, lambda: None)        # alone at its instant
        sim.run()
        census.close()
        assert census.deliveries == 2 and census.events == 3 and not census.ties
        pipe.transfer(1000, lambda: None)
        other.transfer(1000, lambda: None)      # a namesake on another device
        sim.run()

        def tick():
            pass

        pipe.transfer(1000, lambda: None)
        sim.schedule(1e-3, tick)
        sim.run()
    assert [len(group) for _, group in census.ties] == [2, 2]
    last = census.report().splitlines()[-1]
    assert "delivery of 'link' | " in last and "census_sees_a_tie.<locals>.tick of None" in last


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(BY_NAME))
def test_no_delivery_shares_its_instant_with_another_event(name, seed):
    record, census = observed(name, seed)
    assert census.events == record["sim_events"]
    # Every device workload moves commands, data and completions.
    assert (census.deliveries > 0) == (name != "dram_serve")
    assert not census.ties, (
        f"{len(census.ties)} instants shared with a delivery:\n{census.report()}"
    )


def test_the_census_sees_an_event_behind_a_queued_core_completion():
    """An event scheduled before a queued job's admission may share its
    completion's instant; one scheduled after it may not."""

    def early():
        pass

    def late():
        pass

    with census_installed() as census:
        sim = kernel.Simulator()
        core = Core(sim, name="cpu")
        sim.schedule(2e-3, early)
        core.submit(1e-3, lambda: None)         # free
        core.submit(1e-3, lambda: None)         # queued: ends at 2e-3
        sim.run()
        census.close()
        assert census.core_shared == 1 and not census.core_ties
        sim = kernel.Simulator()
        core = Core(sim, name="cpu")
        core.submit(1e-3, lambda: None)
        core.submit(1e-3, lambda: None)
        sim.schedule(1e-3, lambda: sim.schedule(1e-3, late))
        sim.run()
    assert len(census.core_ties) == 1
    report = census.report(census.core_ties)
    assert "queued completion of 'cpu' | " in report and "<locals>.late of None" in report


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(BY_NAME))
def test_nothing_scheduled_after_a_queued_core_job_meets_its_completion(name, seed):
    _, census = observed(name, seed)
    assert not census.core_ties, (
        f"{len(census.core_ties)} instants:\n{census.report(census.core_ties)}"
    )
