"""Tail tolerance: breaker unit behaviour + cluster retry/hedge engine.

The HealthTracker is tested in isolation against fake nodes (ejection,
the last-routable guard, the probe/half-open cycle), then the whole
tolerance layer is exercised end-to-end through ``run_cluster_scenario``
with injected faults: host fail-stops recovered by retries, fail-slow
hosts absorbed by hedging and circuit breaking, and — the satellite-3
property — conservation plus exactly-once logical settlement under
arbitrary random fault schedules.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, run_cluster_scenario
from repro.faults import (
    BreakerConfig,
    FaultEvent,
    FaultSpec,
    HealthTracker,
    ToleranceConfig,
)
from repro.sim.kernel import Simulator
from repro.workload import ScenarioSpec, TenantSpec

from ..serving.conftest import toy_model


# ----------------------------------------------------------------------
# HealthTracker unit tests
# ----------------------------------------------------------------------
class FakeNode:
    """The slice of ClusterNode the tracker touches."""

    def __init__(self, name: str):
        self.name = name
        self.up = True
        self.ejected = False

    @property
    def routable(self) -> bool:
        return self.up and not self.ejected


def make_tracker(n_nodes: int = 3, **overrides):
    sim = Simulator()
    nodes = [FakeNode(f"host{i}") for i in range(n_nodes)]
    config = BreakerConfig(
        latency_threshold_s=overrides.pop("latency_threshold_s", 0.01),
        min_samples=overrides.pop("min_samples", 3),
        probe_after_s=overrides.pop("probe_after_s", 0.05),
        **overrides,
    )
    stats = SimpleNamespace(
        breaker_ejections=0, breaker_probes=0, breaker_restores=0
    )
    return sim, nodes, HealthTracker(sim, nodes, config, stats=stats), stats


class TestBreakerConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="latency_threshold_s"):
            BreakerConfig(latency_threshold_s=0.0)
        with pytest.raises(ValueError, match="ewma_alpha"):
            BreakerConfig(latency_threshold_s=0.01, ewma_alpha=0.0)
        with pytest.raises(ValueError, match="min_samples"):
            BreakerConfig(latency_threshold_s=0.01, min_samples=0)
        with pytest.raises(ValueError, match="probe_after_s"):
            BreakerConfig(latency_threshold_s=0.01, probe_after_s=0.0)

    @pytest.mark.parametrize("field", ["latency_threshold_s", "probe_after_s"])
    def test_nan_rejected(self, field):
        """NaN compares false both ways: a NaN threshold never ejects."""
        knobs = dict(latency_threshold_s=0.01, probe_after_s=0.05)
        knobs[field] = float("nan")
        with pytest.raises(ValueError, match=field):
            BreakerConfig(**knobs)

    @pytest.mark.parametrize("field", ["timeout_s", "backoff_s", "hedge_after_s"])
    def test_tolerance_config_rejects_nan(self, field):
        with pytest.raises(ValueError, match=field):
            ToleranceConfig(**{field: float("nan")})

    def test_tolerance_config_validation(self):
        with pytest.raises(ValueError, match="timeout_s"):
            ToleranceConfig(timeout_s=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            ToleranceConfig(max_retries=-1)
        with pytest.raises(ValueError, match="backoff_s"):
            ToleranceConfig(backoff_s=-1.0)
        with pytest.raises(ValueError, match="hedge_after_s"):
            ToleranceConfig(hedge_after_s=0.0)
        described = ToleranceConfig(
            timeout_s=0.1, breaker=BreakerConfig(latency_threshold_s=0.01)
        ).describe()
        assert described["timeout_s"] == 0.1
        assert described["breaker"]["latency_threshold_s"] == 0.01


class TestHealthTracker:
    def test_slow_host_ejected_after_min_samples(self):
        _, nodes, tracker, stats = make_tracker()
        for _ in range(2):
            tracker.observe("host0", 0.05)
            assert nodes[0].routable  # confidence not reached yet
        tracker.observe("host0", 0.05)
        assert tracker.state_of("host0") == "open"
        assert nodes[0].ejected and not nodes[0].routable
        assert stats.breaker_ejections == 1

    def test_healthy_host_stays_closed(self):
        _, nodes, tracker, stats = make_tracker()
        for _ in range(20):
            tracker.observe("host0", 0.001)
        assert tracker.state_of("host0") == "closed"
        assert nodes[0].routable and stats.breaker_ejections == 0

    def test_timeouts_count_as_slow_evidence(self):
        _, nodes, tracker, _ = make_tracker()
        for _ in range(3):
            tracker.on_timeout("host1")
        assert tracker.state_of("host1") == "open"
        assert not nodes[1].routable

    def test_never_ejects_last_routable_host(self):
        _, nodes, tracker, stats = make_tracker(n_nodes=2)
        nodes[1].up = False
        for _ in range(10):
            tracker.observe("host0", 1.0)
        assert tracker.state_of("host0") == "closed"
        assert nodes[0].routable
        assert stats.breaker_ejections == 0

    def test_probe_half_open_then_restore(self):
        sim, nodes, tracker, stats = make_tracker()
        for _ in range(3):
            tracker.observe("host0", 0.05)
        assert tracker.state_of("host0") == "open"
        sim.run_until(lambda: tracker.state_of("host0") == "half_open")
        assert nodes[0].routable  # probing: let one request through
        assert stats.breaker_probes == 1
        tracker.observe("host0", 0.001)
        assert tracker.state_of("host0") == "closed"
        assert stats.breaker_restores == 1

    def test_probe_reejects_when_still_slow(self):
        sim, nodes, tracker, stats = make_tracker()
        for _ in range(3):
            tracker.observe("host0", 0.05)
        sim.run_until(lambda: tracker.state_of("host0") == "half_open")
        tracker.observe("host0", 0.05)
        assert tracker.state_of("host0") == "open"
        assert not nodes[0].routable
        assert stats.breaker_ejections == 2


# ----------------------------------------------------------------------
# Cluster integration
# ----------------------------------------------------------------------
def cluster_spec(
    name: str,
    *,
    n_hosts: int = 3,
    rate: float = 2000.0,
    n_requests: int = 40,
    seed: int = 11,
    router: str = "round_robin",
    faults: Optional[FaultSpec] = None,
    **cluster_kwargs,
) -> ClusterSpec:
    scenario = ScenarioSpec(
        name=name,
        tenants=(
            TenantSpec(
                model="toy", arrival="open", rate=rate, n_requests=n_requests
            ),
        ),
        seed=seed,
        faults=faults,
    )
    return ClusterSpec(
        name=name,
        scenario=scenario,
        n_hosts=n_hosts,
        router=router,
        **cluster_kwargs,
    )


def fleet_conserves(stats) -> bool:
    return (
        stats.submitted
        == stats.completed + stats.rejected + stats.dropped + stats.inflight
    )


class TestClusterTolerance:
    def test_host_fail_recovered_by_retries(self):
        spec = cluster_spec(
            "failover",
            rate=4000.0,
            n_requests=60,
            faults=FaultSpec(
                events=(
                    # Slow the host first so a queue builds, then
                    # fail-stop it: the shed backlog must be retried.
                    FaultEvent(
                        t=0.0, kind="fail_slow", host="host0", factor=30.0
                    ),
                    FaultEvent(t=0.008, kind="host_fail", host="host0"),
                )
            ),
            tolerance=ToleranceConfig(max_retries=2, backoff_s=0.0),
        )
        result = run_cluster_scenario(spec, [toy_model()])
        stats = result.stats
        assert fleet_conserves(stats)
        assert stats.inflight == 0
        # Every logical request settles exactly once, and every one of
        # them completes: the shed backlog was retried elsewhere.
        assert stats.logical_submitted == 60
        assert stats.logical_settled == 60
        assert stats.completed == 60
        assert stats.retries > 0
        assert stats.dropped == stats.retries  # each shed attempt retried
        assert stats.tolerance_summary()["retries"] == float(stats.retries)
        assert [e["kind"] for e in result.fault_log] == [
            "fail_slow",
            "host_fail",
        ]

    def test_retry_budget_exhaustion_reports_failure(self):
        # All hosts fail before any traffic: retries cannot save anyone.
        spec = cluster_spec(
            "doomed",
            n_hosts=2,
            rate=1000.0,
            n_requests=10,
            faults=FaultSpec(
                events=(
                    FaultEvent(t=0.0, kind="host_fail", host="host0"),
                    FaultEvent(t=0.0, kind="host_fail", host="host1"),
                )
            ),
            tolerance=ToleranceConfig(max_retries=1, backoff_s=0.0),
        )
        result = run_cluster_scenario(spec, [toy_model()])
        stats = result.stats
        assert fleet_conserves(stats)
        assert stats.logical_settled == stats.logical_submitted == 10
        assert stats.completed == 0
        # No routable host: every call terminates at the router.
        assert stats.router_rejected == 10
        assert stats.rejects_by_reason == {"no_host": 10}

    def test_hedging_accounting_under_fail_slow(self):
        spec = cluster_spec(
            "hedged",
            rate=1500.0,
            n_requests=45,
            faults=FaultSpec(
                events=(
                    FaultEvent(
                        t=0.0, kind="fail_slow", host="host0", factor=20.0
                    ),
                )
            ),
            tolerance=ToleranceConfig(hedge_after_s=0.004),
        )
        result = run_cluster_scenario(spec, [toy_model()])
        stats = result.stats
        assert fleet_conserves(stats)
        assert stats.inflight == 0
        assert stats.logical_settled == stats.logical_submitted == 45
        assert stats.hedges_dispatched > 0
        # Every hedged call resolves to exactly one of won / lost.
        assert stats.hedges_won + stats.hedges_lost == stats.hedges_dispatched
        assert stats.hedges_won > 0
        # Host submissions exceed logical ones by exactly the hedges.
        assert stats.submitted == 45 + stats.hedges_dispatched

    def test_timeouts_abandon_slow_attempts(self):
        spec = cluster_spec(
            "timeouts",
            rate=1500.0,
            n_requests=30,
            faults=FaultSpec(
                events=(
                    FaultEvent(
                        t=0.0, kind="fail_slow", host="host0", factor=50.0
                    ),
                )
            ),
            tolerance=ToleranceConfig(timeout_s=0.008, max_retries=2),
        )
        result = run_cluster_scenario(spec, [toy_model()])
        stats = result.stats
        assert fleet_conserves(stats)
        assert stats.logical_settled == stats.logical_submitted == 30
        assert stats.timeouts > 0
        assert stats.retries > 0

    def test_breaker_ejects_and_probes_fail_slow_host(self):
        spec = cluster_spec(
            "breaker",
            rate=2000.0,
            n_requests=60,
            faults=FaultSpec(
                events=(
                    FaultEvent(
                        t=0.0, kind="fail_slow", host="host0", factor=20.0
                    ),
                )
            ),
            tolerance=ToleranceConfig(
                breaker=BreakerConfig(
                    latency_threshold_s=0.005,
                    min_samples=4,
                    probe_after_s=0.01,
                )
            ),
        )
        result = run_cluster_scenario(spec, [toy_model()])
        stats = result.stats
        assert fleet_conserves(stats)
        assert stats.logical_settled == stats.logical_submitted == 60
        assert stats.breaker_ejections > 0
        assert stats.breaker_probes > 0
        assert stats.tolerance_summary()["breaker_ejections"] == float(
            stats.breaker_ejections
        )

    def test_tolerance_without_faults_changes_no_outcome(self):
        baseline = run_cluster_scenario(
            cluster_spec("plain"), [toy_model()]
        )
        tolerant = run_cluster_scenario(
            cluster_spec(
                "plain",
                tolerance=ToleranceConfig(
                    timeout_s=10.0, max_retries=2, hedge_after_s=10.0
                ),
            ),
            [toy_model()],
        )
        # Generous knobs on a healthy fleet: no timer ever wins, so the
        # outcome matches the legacy path number-for-number.  mean_ms is
        # approx-only: with tolerance on, the fleet latency population is
        # the logical one — same values, but summed in completion order
        # rather than host-merged order, which moves the last ulp.
        t_mean = tolerant.summary.pop("mean_ms")
        b_mean = baseline.summary.pop("mean_ms")
        assert t_mean == pytest.approx(b_mean, rel=1e-12)
        assert tolerant.summary == baseline.summary
        assert tolerant.stats.retries == 0
        assert tolerant.stats.hedges_dispatched == 0
        assert tolerant.stats.timeouts == 0


# ----------------------------------------------------------------------
# Satellite 3: conservation under arbitrary fault schedules
# ----------------------------------------------------------------------
_KINDS = st.sampled_from(
    [
        "fail_slow",
        "restore_speed",
        "read_errors",
        "clear_read_errors",
        "ndp_crash",
        "ndp_restore",
        "device_down",
        "device_up",
        "host_fail",
        "host_drain",
        "host_restore",
    ]
)


@st.composite
def fault_events(draw):
    kind = draw(_KINDS)
    return FaultEvent(
        t=draw(st.floats(min_value=0.0, max_value=0.03)),
        kind=kind,
        host=f"host{draw(st.integers(min_value=0, max_value=2))}",
        factor=draw(st.floats(min_value=2.0, max_value=20.0)),
        fraction=draw(st.floats(min_value=0.01, max_value=0.5)),
        seed=draw(st.integers(min_value=0, max_value=3)),
    )


class TestFaultScheduleProperties:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        events=st.lists(fault_events(), min_size=1, max_size=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_conservation_and_settlement_hold(self, events, seed):
        spec = cluster_spec(
            "prop",
            rate=2500.0,
            n_requests=16,
            seed=seed,
            faults=FaultSpec(events=tuple(events)),
            tolerance=ToleranceConfig(
                timeout_s=0.05,
                max_retries=2,
                backoff_s=0.001,
                hedge_after_s=0.02,
                breaker=BreakerConfig(
                    latency_threshold_s=0.02, min_samples=4, probe_after_s=0.01
                ),
            ),
        )
        result = run_cluster_scenario(spec, [toy_model()])
        stats = result.stats
        # Fleet conservation: every host submission is terminal or live.
        assert fleet_conserves(stats)
        # Exactly-once logical settlement, whatever broke.
        assert stats.logical_submitted == 16
        assert stats.logical_settled == 16
        # Degraded requests are a subset of completed ones.
        assert 0 <= stats.degraded <= stats.completed
        assert stats.missing_bags >= stats.degraded  # >=1 bag per degrade
        # Hedge accounting closes.
        assert (
            stats.hedges_won + stats.hedges_lost == stats.hedges_dispatched
        )
