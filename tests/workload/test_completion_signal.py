"""``run_workload`` stops on a completion signal, not by polling.

The contract is that nothing observable moved: for every front-end shape
the signalled run returns at the same ``sim.now`` and ``sim.event_count``
as the per-event polling loop it replaced, which is kept here as the
reference (``polled_run_workload``).  Each case builds the same stack
twice from the same seed and drives one copy each way.
"""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, UserSpec, build_cluster
from repro.faults.tolerance import ToleranceConfig
from repro.serving import ServingConfig
from repro.sim.kernel import SimError
from repro.workload import (
    ClosedLoopGenerator,
    OpenLoopGenerator,
    ScenarioSpec,
    TenantSpec,
    run_workload,
)

from ..serving.conftest import build_server, toy_model


def polled_run_workload(server, generators, seed=0, limit=float("inf")):
    """The pre-signal ``run_workload``: re-read ``settled`` after every event."""
    rng = np.random.default_rng(seed)
    base = server.stats.settled
    total = 0
    for generator in generators:
        generator.schedule(server, rng)
        total += generator.total_requests
    server.sim.run_until(lambda: server.stats.settled >= base + total, limit)
    return server.stats


def open_loop(n=24, rate=4000.0):
    return [OpenLoopGenerator("toy", rate=rate, n_requests=n, batch_size=2)]


def fleet(n_hosts=4, tolerance=None):
    spec = ClusterSpec(
        name="signal",
        scenario=ScenarioSpec(
            name="signal",
            tenants=(
                TenantSpec(model="toy", arrival="open", rate=4000.0, n_requests=1),
            ),
            backend="ndp",
        ),
        n_hosts=n_hosts,
        router="consistent_hash",
        router_spread=2,
        users=UserSpec(n_users=32, seed=3),
        embcache_slots=128,
        tolerance=tolerance,
    )
    return build_cluster(spec, [toy_model()])


def stop_instant(front):
    return front.sim.now, front.sim.event_count, front.stats.settled


def assert_same_stop(build, generators, **kwargs):
    signalled, polled = build(), build()
    run_workload(signalled, generators(), seed=5, **kwargs)
    polled_run_workload(polled, generators(), seed=5, **kwargs)
    assert stop_instant(signalled) == stop_instant(polled)
    assert signalled.sim.event_count > 0
    return signalled


class TestStopInstantMatchesPolling:
    def test_standalone_server(self):
        server = assert_same_stop(lambda: build_server(toy_model()), open_loop)
        assert server.stats.completed == 24

    def test_four_host_cluster(self):
        cluster = assert_same_stop(fleet, open_loop)
        assert cluster.stats.completed == 24
        assert sum(n.stats.completed > 0 for n in cluster.nodes) > 1

    def test_tolerance_mode_stops_at_the_logical_settle(self):
        tolerance = ToleranceConfig(hedge_after_s=0.0002, max_retries=1)
        cluster = assert_same_stop(lambda: fleet(tolerance=tolerance), open_loop)
        stats = cluster.stats
        assert stats.logical_settled == 24
        # Hedges made host attempts outnumber logical requests, so a
        # host-level count would have stopped the run too early.
        assert stats.hedges_dispatched > 0
        assert stats.submitted > stats.logical_settled

    def test_closed_loop_clients(self):
        def clients():
            return [
                ClosedLoopGenerator(
                    "toy", num_clients=3, requests_per_client=4,
                    think_time_s=0.0002, batch_size=2,
                )
            ]

        server = assert_same_stop(lambda: build_server(toy_model()), clients)
        assert server.stats.completed == 12

    def test_rejections_settle_without_an_event(self):
        # In-flight limit 1: most closed-loop first turns are rejected
        # inside schedule(), before the kernel runs at all.
        config = ServingConfig(max_inflight_requests=1)

        def clients():
            return [ClosedLoopGenerator("toy", num_clients=4, requests_per_client=1)]

        server = assert_same_stop(
            lambda: build_server(toy_model(), serving_config=config), clients
        )
        assert server.stats.rejected == 3

    def test_leftover_inflight_requests_count_towards_the_target(self):
        def build():
            server = build_server(toy_model())
            model = server.models["toy"]
            rng = np.random.default_rng(0)
            for _ in range(3):
                server.submit("toy", model.sample_batch(rng, 2))
            assert server.stats.inflight == 3
            return server

        server = assert_same_stop(build, lambda: open_loop(n=6))
        # Any six terminal requests satisfy the target: the run returns
        # with some of its own traffic still in flight.
        assert server.stats.settled == 6
        assert server.stats.inflight == 3

    @pytest.mark.parametrize("runner", [run_workload, polled_run_workload])
    def test_hit_limit_raises_and_names_the_limit(self, runner):
        server = build_server(toy_model())
        with pytest.raises(SimError, match="limit reached") as err:
            runner(server, open_loop(n=24, rate=1000.0), seed=5, limit=0.004)
        assert "pending_events=" in str(err.value)
        assert 0 < server.stats.settled < 24

    def test_hit_limit_stops_at_the_same_instant(self):
        instants = []
        for runner in (run_workload, polled_run_workload):
            server = build_server(toy_model())
            with pytest.raises(SimError):
                runner(server, open_loop(n=24, rate=1000.0), seed=5, limit=0.004)
            instants.append(stop_instant(server))
        assert instants[0] == instants[1]


class _NoTraffic(OpenLoopGenerator):
    """A generator whose population turned out empty."""

    def __init__(self):
        super().__init__("toy", arrivals=np.zeros(0))


class TestAlreadySatisfied:
    def test_zero_requests_returns_without_running_an_event(self):
        server = build_server(toy_model())
        run_workload(server, open_loop(n=4), seed=1)
        before = stop_instant(server)
        server.sim.schedule(1.0, lambda: None)  # must stay pending
        run_workload(server, [_NoTraffic()], seed=1)
        assert stop_instant(server) == before
        assert server.sim.pending_events == 1

    def test_signal_leaves_no_watch_armed(self):
        server = build_server(toy_model())
        run_workload(server, open_loop(n=4), seed=1)
        assert server.stats._settle_watch is None
        cluster = fleet(n_hosts=2)
        run_workload(cluster, open_loop(n=4), seed=1)
        assert cluster.stats._settle_watch is None
