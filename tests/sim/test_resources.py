"""Tests for Server (priority queueing), Core and BandwidthPipe."""

import math

import pytest

from repro.sim.kernel import SimError, Simulator
from repro.sim.resources import BandwidthPipe, Core, Server


class TestServer:
    def test_single_server_serializes(self, sim):
        server = Server(sim)
        done = []
        server.submit(1e-6, lambda: done.append(sim.now))
        server.submit(1e-6, lambda: done.append(sim.now))
        sim.run()
        assert done == pytest.approx([1e-6, 2e-6])

    def test_fifo_within_priority(self, sim):
        server = Server(sim)
        order = []
        server.submit(1e-6, lambda: order.append("busy"))
        for name in ("a", "b", "c"):
            server.submit(1e-6, lambda n=name: order.append(n))
        sim.run()
        assert order == ["busy", "a", "b", "c"]

    def test_priority_jumps_queue(self, sim):
        server = Server(sim)
        order = []
        server.submit(1e-6, lambda: order.append("busy"))
        server.submit(1e-6, lambda: order.append("low1"), priority=1)
        server.submit(1e-6, lambda: order.append("low2"), priority=1)
        server.submit(1e-6, lambda: order.append("high"), priority=0)
        sim.run()
        assert order == ["busy", "high", "low1", "low2"]

    def test_running_job_not_preempted(self, sim):
        server = Server(sim)
        order = []
        server.submit(10e-6, lambda: order.append("long"))
        sim.run(until=1e-6)
        server.submit(1e-6, lambda: order.append("urgent"), priority=-5)
        sim.run()
        assert order == ["long", "urgent"]

    def test_utilization_and_counters(self, sim):
        server = Server(sim)
        for _ in range(4):
            server.submit(1e-6, lambda: None)
        sim.run()
        assert server.jobs_completed == 4
        assert server.busy_time == pytest.approx(4e-6)
        assert server.utilization() == pytest.approx(1.0)
        assert server.idle

    def test_negative_service_time_rejected(self, sim):
        server = Server(sim)
        with pytest.raises(SimError):
            server.submit(-1e-6, lambda: None)

    def test_nan_service_time_rejected(self, sim):
        server = Server(sim)
        with pytest.raises(SimError):
            server.submit(math.nan, lambda: None)
        assert server.busy_time == 0.0 and server.idle

    def test_queue_length(self, sim):
        server = Server(sim)
        for _ in range(5):
            server.submit(1e-6, lambda: None)
        assert server.queue_length == 4
        assert server.busy == 1


class TestBandwidthPipe:
    def test_transfer_time_is_size_over_bandwidth(self, sim):
        pipe = BandwidthPipe(sim, bandwidth_bytes_per_s=1e6)
        done = []
        pipe.transfer(1000, lambda: done.append(sim.now))
        sim.run()
        assert done == pytest.approx([1e-3])

    def test_transfers_serialize(self, sim):
        pipe = BandwidthPipe(sim, bandwidth_bytes_per_s=1e6)
        done = []
        pipe.transfer(1000, lambda: done.append(sim.now))
        pipe.transfer(1000, lambda: done.append(sim.now))
        sim.run()
        assert done == pytest.approx([1e-3, 2e-3])

    def test_latency_added_after_occupancy(self, sim):
        pipe = BandwidthPipe(sim, bandwidth_bytes_per_s=1e6, latency_s=5e-6)
        done = []
        pipe.transfer(1000, lambda: done.append(sim.now))
        pipe.transfer(1000, lambda: done.append(sim.now))
        sim.run()
        # Latency does not occupy the link: second transfer starts at 1ms.
        assert done == pytest.approx([1e-3 + 5e-6, 2e-3 + 5e-6])

    def test_bytes_counted(self, sim):
        pipe = BandwidthPipe(sim, bandwidth_bytes_per_s=1e6)
        pipe.transfer(123, lambda: None)
        pipe.transfer(877, lambda: None)
        sim.run()
        assert pipe.bytes_transferred == 1000

    def test_nan_transfer_size_rejected(self, sim):
        pipe = BandwidthPipe(sim, bandwidth_bytes_per_s=1e6)
        with pytest.raises(SimError):
            pipe.transfer(math.nan, lambda: None)
        assert pipe.busy_time == 0.0 and sim.pending_events == 0

    def test_bad_bandwidth_rejected(self, sim):
        with pytest.raises(SimError):
            BandwidthPipe(sim, bandwidth_bytes_per_s=0)

    @pytest.mark.parametrize(
        "knobs",
        [
            {"bandwidth_bytes_per_s": math.nan},
            {"latency_s": math.nan},
            {"latency_s": math.inf},
            {"latency_s": -1e-6},
        ],
        ids=["bandwidth-nan", "latency-nan", "latency-inf", "latency-negative"],
    )
    def test_bad_bandwidth_or_latency_refused(self, sim, knobs):
        # Regression: a NaN bandwidth or latency was accepted, and one
        # transfer then ran the clock to NaN.
        with pytest.raises(SimError, match="bandwidth|latency"):
            BandwidthPipe(sim, **{"bandwidth_bytes_per_s": 1e6, **knobs})
        assert sim.now == 0.0 and sim.pending_events == 0


class TestCore:
    @pytest.mark.parametrize("service_time", [-1e-6, math.nan], ids=["negative", "nan"])
    def test_bad_service_time_refused_before_anything_counts(self, sim, service_time):
        core = Core(sim)
        pipe = BandwidthPipe(sim, bandwidth_bytes_per_s=1e6)
        with pytest.raises(SimError, match="service time"):
            core.submit(service_time, lambda: None)
        with pytest.raises(SimError, match="service time"):
            pipe.transfer_after(core, service_time, 10, lambda: None)
        with pytest.raises(SimError, match="transfer size"):
            pipe.transfer_after(core, 1e-6, math.nan, lambda: None)
        assert (core.jobs_started, core.busy_time, pipe.bytes_transferred) == (0, 0.0, 0)
        assert core.idle and sim.pending_events == 0
