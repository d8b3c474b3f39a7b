"""Cluster fault edges: fail/drain idempotency and the fault-gauge reset
audit.

Satellite regressions for the fault layer: ``Cluster.fail()`` must shed
a host's queued backlog exactly once however many times (and from
whatever state) it is called, and every new fault/hedge/retry/health
gauge must come back indistinguishable from fresh after
``reset_stats()`` — the PR-5 reset-audit convention extended to the
tolerance layer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    ClusterSpec,
    ClusterStats,
    build_cluster,
    run_cluster_scenario,
)
from repro.cluster.node import NodeState
from repro.faults import (
    BreakerConfig,
    FaultEvent,
    FaultSpec,
    ToleranceConfig,
)

from ..serving.conftest import toy_model
from .test_cluster import fleet_conserves, open_scenario


def backlogged_cluster(n_requests: int = 24):
    """A 2-host fleet with requests still queued (sim never advanced)."""
    cluster = build_cluster(
        ClusterSpec(name="backlog", scenario=open_scenario(), n_hosts=2),
        [toy_model()],
    )
    model = cluster.models["toy"]
    rng = np.random.default_rng(3)
    for _ in range(n_requests):
        cluster.submit("toy", model.sample_batch(rng, 1))
    return cluster


class TestFailIdempotency:
    def test_double_fail_sheds_only_once(self):
        cluster = backlogged_cluster()
        node = cluster.node("host0")
        queued = node.server.queue.queued
        assert queued > 0
        shed = cluster.fail("host0")
        assert shed == queued
        dropped_after_first = node.stats.dropped
        assert dropped_after_first == shed
        # Second fail: nothing left to shed, nothing double-counted.
        assert cluster.fail("host0") == 0
        assert node.stats.dropped == dropped_after_first
        assert node.stats.drops_by_reason["host_down"] == shed
        assert fleet_conserves(cluster.stats)

    def test_fail_after_drain_sheds_backlog_once(self):
        # DRAINING keeps the backlog alive (it would have completed);
        # failing the draining host sheds it — exactly once.
        cluster = backlogged_cluster()
        node = cluster.node("host1")
        queued = node.server.queue.queued
        assert queued > 0
        cluster.drain("host1")
        assert node.state is NodeState.DRAINING
        assert node.stats.dropped == 0  # drain loses nothing
        shed = cluster.fail("host1")
        assert shed == queued
        assert cluster.fail("host1") == 0
        assert node.stats.dropped == shed
        assert node.stats.drops_by_reason == {"host_down": shed}
        assert fleet_conserves(cluster.stats)

    def test_failed_host_restores_clean(self):
        cluster = backlogged_cluster()
        shed = cluster.fail("host0")
        assert shed > 0
        cluster.restore("host0")
        node = cluster.node("host0")
        assert node.state is NodeState.UP and node.routable
        # A restored host can fail again — but only new backlog sheds.
        assert cluster.fail("host0") == 0


class TestFaultGaugeResetAudit:
    """Satellite 4: the reset audit covers every tolerance-layer gauge."""

    @staticmethod
    def _public(obj):
        return {k: v for k, v in vars(obj).items() if not k.startswith("_")}

    def _tolerant_cluster(self):
        spec = ClusterSpec(
            name="audit-faults",
            scenario=open_scenario(
                rate=3000.0,
                n_requests=40,
                faults=FaultSpec(
                    events=(
                        FaultEvent(
                            t=0.0, kind="fail_slow", host="host0", factor=30.0
                        ),
                        FaultEvent(t=0.02, kind="host_fail", host="host0"),
                    )
                ),
            ),
            n_hosts=3,
            tolerance=ToleranceConfig(
                timeout_s=0.004,
                max_retries=2,
                backoff_s=0.0005,
                hedge_after_s=0.002,
                breaker=BreakerConfig(
                    latency_threshold_s=0.006,
                    min_samples=2,
                    probe_after_s=0.01,
                ),
            ),
        )
        return run_cluster_scenario(spec, [toy_model()]).front

    def test_tolerance_gauges_reset_indistinguishable_from_fresh(self):
        cluster = self._tolerant_cluster()
        stats = cluster.stats
        # The audit only means something once the new gauges saw work.
        assert stats.logical_submitted == 40
        assert stats.logical_settled == 40
        assert stats.timeouts > 0
        assert stats.retries > 0
        assert stats.hedges_dispatched > 0
        assert stats.breaker_ejections > 0

        cluster.reset_stats()

        fresh = ClusterStats(cluster.sim, cluster.nodes)
        # tolerance_active is wiring, not a counter: it must survive the
        # reset (the cluster still runs tolerant), so mirror it on the
        # fresh object before comparing.
        assert stats.tolerance_active is True
        fresh.tolerance_active = True
        assert self._public(stats) == self._public(fresh), (
            "reset_stats() left a tolerance gauge dirty"
        )
        # Settled accounting stays logical after the reset.
        assert stats.settled == 0

    def test_timeout_cancel_gauge_dirties_and_resets(self):
        from repro.serving.request import RequestState

        cluster = build_cluster(
            ClusterSpec(name="tc", scenario=open_scenario(), n_hosts=1),
            [toy_model()],
        )
        model = cluster.models["toy"]
        rng = np.random.default_rng(5)
        requests = [
            cluster.submit("toy", model.sample_batch(rng, 1))
            for _ in range(12)
        ]
        node = cluster.node("host0")
        queued = [r for r in requests if r.state is RequestState.QUEUED]
        assert queued
        node.server.cancel_queued(queued[-1], "timeout")
        assert node.stats.timeout_cancels == 1
        assert node.stats.drops_by_reason["timeout"] == 1
        cluster.reset_stats()
        assert node.stats.timeout_cancels == 0
        assert node.stats.drops_by_reason == {}

    def test_serving_fault_gauges_reset(self):
        from repro.serving.stats import ServingStats

        cluster = self._tolerant_cluster()
        cluster.reset_stats()
        for node in cluster.nodes:
            fresh = ServingStats(cluster.sim)
            recorded = {
                k: v for k, v in vars(node.stats).items() if k != "sim"
            }
            expected = {k: v for k, v in vars(fresh).items() if k != "sim"}
            assert set(recorded) == set(expected)
            for key in (
                "degraded",
                "missing_bags",
                "uncorrectable_rows",
                "uncorrectable_pages",
                "ndp_fallbacks",
                "timeout_cancels",
            ):
                assert recorded[key] == expected[key], key
