"""Property-based scenario tests: the serving invariants hold for
*arbitrary* generated scenarios.

Hypothesis draws random ``ScenarioSpec``s — tenant mix (open/closed
arrival models, rates, batch sizes), admission knobs (SLOs, deadline
drop, quotas, priorities), host resource pools (bounded/unbounded SLS
and dense workers) and server limits — and runs each end to end.
Whatever the draw, the accounting must balance:

* conservation: ``submitted == completed + rejected + dropped + inflight``
  (and ``inflight == 0`` once the run settled);
* ``goodput <= completed``, and per-lane goodput sums to the total;
* percentile monotonicity: ``p50 <= p95 <= p99 <= max``;
* per-lane terminal counts sum to the lane's submissions.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.models.dlrm import DlrmConfig, DlrmModel
from repro.workload import ScenarioSpec, TenantSpec, run_scenario

def _model(name: str, seed: int) -> DlrmModel:
    """One tiny model shape (fresh instance per run; cheap to build)."""
    return DlrmModel(
        DlrmConfig(
            name=name,
            dense_in=8,
            bottom_mlp=(16, 8),
            top_mlp=(16, 8),
            num_tables=2,
            table_rows=2048,
            dim=8,
            lookups=4,
        ),
        seed=seed,
    )


def tenant_strategy(index: int):
    name = f"t{index}"
    open_tenant = st.builds(
        TenantSpec,
        model=st.just(name),
        arrival=st.just("open"),
        rate=st.sampled_from([200.0, 1000.0, 5000.0]),
        n_requests=st.integers(3, 10),
        batch_size=st.integers(1, 3),
        slo_s=st.sampled_from([None, 0.002, 0.02]),
        priority=st.sampled_from([0, 1]),
        quota=st.sampled_from([None, 2, 8]),
    )
    closed_tenant = st.builds(
        TenantSpec,
        model=st.just(name),
        arrival=st.just("closed"),
        num_clients=st.integers(1, 4),
        requests_per_client=st.integers(1, 3),
        think_time_s=st.sampled_from([0.0, 0.001]),
        batch_size=st.integers(1, 3),
        slo_s=st.sampled_from([None, 0.005]),
        priority=st.sampled_from([0, 1]),
    )
    return st.one_of(open_tenant, closed_tenant)


scenario_strategy = st.builds(
    ScenarioSpec,
    name=st.just("prop"),
    tenants=st.tuples(tenant_strategy(0), tenant_strategy(1)),
    backend=st.sampled_from(["dram", "ndp"]),
    max_inflight_requests=st.sampled_from([4, 16, 64]),
    max_batch_requests=st.sampled_from([1, 4, 8]),
    max_inflight_batches_total=st.sampled_from([None, 1, 2]),
    host_sls_workers=st.sampled_from([None, 1, 2]),
    dense_workers=st.sampled_from([0, 1, 3]),
    dense_time_scale=st.sampled_from([1.0, 16.0]),
    deadline_drop=st.booleans(),
    drop_headroom_s=st.sampled_from([0.0, 0.001]),
    seed=st.integers(0, 2**16),
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=scenario_strategy)
def test_scenario_invariants(spec: ScenarioSpec):
    models = [_model(t.model, seed=i + 1) for i, t in enumerate(spec.tenants)]
    result = run_scenario(spec, models)
    stats = result.stats

    # Conservation: every submission reached exactly one terminal state.
    assert stats.inflight == 0
    assert stats.submitted == stats.completed + stats.rejected + stats.dropped
    assert stats.submitted == spec.total_requests

    # Goodput can never exceed completions, globally or per lane.
    assert 0 <= stats.goodput <= stats.completed
    assert stats.goodput + stats.deadline_misses == stats.completed
    assert sum(stats.goodput_by_model.values()) == stats.goodput

    # Percentile monotonicity over the recorded latencies.
    summary = result.summary
    assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
    assert summary["p99_ms"] <= summary["max_ms"]
    assert all(latency >= 0 for latency in stats.latencies)

    # Per-lane terminal counts balance per-lane submissions.
    for model_name, lane in result.lanes.items():
        assert (
            lane["completed"] + lane["rejected"] + lane["dropped"]
            == lane["submitted"]
        ), (model_name, lane)
        assert lane["goodput"] <= lane["completed"]

    # Host-pool gauges stay coherent for any pool configuration: every
    # completed request ran exactly one dense job, and a settled server
    # holds no SLS workers.
    host = result.front.hostpool_summary()
    assert host["dense"]["jobs"] == stats.completed
    assert host["host_sls"]["in_use"] == 0.0
    assert 0.0 <= host["host_sls"]["utilization"] <= 1.0 + 1e-9
    assert 0.0 <= host["dense"]["utilization"] <= 1.0 + 1e-9
    assert summary["mean_dense_wait_ms"] >= 0.0
    assert summary["mean_sls_wait_ms"] >= 0.0


@pytest.mark.parametrize("dense_workers", [1, 0, 2])
def test_tenantspec_runs_unchanged_on_host_pools(dense_workers):
    """TenantSpec needs no knowledge of the host resource model: the
    same tenants run under any pool configuration."""
    tenants = (
        TenantSpec(model="t0", arrival="open", rate=800.0, n_requests=6),
        TenantSpec(
            model="t1", arrival="closed", num_clients=2, requests_per_client=2
        ),
    )
    spec = ScenarioSpec(
        name="pools",
        tenants=tenants,
        backend="dram",
        dense_workers=dense_workers,
        host_sls_workers=1,
        seed=3,
    )
    models = [_model(t.model, seed=i + 1) for i, t in enumerate(tenants)]
    result = run_scenario(spec, models)
    assert result.stats.completed == spec.total_requests


# ----------------------------------------------------------------------
# Cluster tier: the same invariants must hold fleet-wide, for arbitrary
# host counts, router policies, user populations and drain/fail/restore
# timelines (repro.cluster) — plus the aggregation contracts only a
# fleet has: per-host stats sum to cluster totals, and the merged-
# population percentiles stay monotone.
# ----------------------------------------------------------------------

from repro.cluster import ClusterSpec, UserSpec  # noqa: E402
from repro.cluster import run_cluster_scenario  # noqa: E402
from repro.faults import FaultEvent, FaultSpec  # noqa: E402


def host_event_strategy(n_hosts: int):
    return st.builds(
        FaultEvent,
        t=st.sampled_from([0.001, 0.003, 0.008]),
        kind=st.sampled_from(["host_drain", "host_fail", "host_restore"]),
        host=st.sampled_from([f"host{i}" for i in range(n_hosts)]),
    )


def cluster_spec_strategy():
    # Keep the per-host knobs modest (the fleet multiplies everything).
    def scenario(n_hosts: int):
        return st.builds(
            ScenarioSpec,
            name=st.just("prop-fleet"),
            tenants=st.tuples(tenant_strategy(0), tenant_strategy(1)),
            backend=st.sampled_from(["dram", "ndp"]),
            max_inflight_requests=st.sampled_from([8, 64]),
            max_batch_requests=st.sampled_from([2, 8]),
            deadline_drop=st.booleans(),
            seed=st.integers(0, 2**16),
            faults=st.lists(host_event_strategy(n_hosts), max_size=2).map(
                lambda events: FaultSpec(events=tuple(events))
            ),
        )

    def users(spec: ScenarioSpec):
        # User-keyed traffic is open-loop: a closed tenant rules it out.
        if any(t.arrival == "closed" for t in spec.tenants):
            return st.none()
        return st.sampled_from([None, UserSpec(n_users=32, alpha=1.1, reuse=0.8, seed=3)])

    def fleet(n_hosts: int, spec: ScenarioSpec):
        return st.builds(
            ClusterSpec,
            name=st.just("prop-cluster"),
            scenario=st.just(spec),
            n_hosts=st.just(n_hosts),
            router=st.sampled_from(
                ["round_robin", "least_loaded", "consistent_hash"]
            ),
            router_spread=st.sampled_from([1, 2]),
            users=users(spec),
            embcache_slots=st.sampled_from([0, 128]),
        )

    return st.integers(1, 3).flatmap(
        lambda n_hosts: scenario(n_hosts).flatmap(lambda spec: fleet(n_hosts, spec))
    )


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=cluster_spec_strategy())
def test_cluster_scenario_invariants(spec: ClusterSpec):
    models = [
        _model(t.model, seed=i + 1)
        for i, t in enumerate(spec.scenario.tenants)
    ]
    result = run_cluster_scenario(spec, models)
    stats = result.stats
    nodes = result.front.nodes

    # Fleet conservation: every submission reached one terminal state,
    # through any combination of drains, failures and router rejections.
    assert stats.inflight == 0
    assert stats.submitted == stats.completed + stats.rejected + stats.dropped
    assert stats.submitted == spec.scenario.total_requests

    # Per-host stats sum to cluster totals (router rejections are
    # cluster-side only — no host ever saw those requests).
    for attr in ("completed", "dropped", "inflight", "goodput"):
        assert getattr(stats, attr) == sum(
            getattr(n.stats, attr) for n in nodes
        ), attr
    assert stats.submitted == stats.router_rejected + sum(
        n.stats.submitted for n in nodes
    )
    assert stats.rejected == stats.router_rejected + sum(
        n.stats.rejected for n in nodes
    )
    assert len(stats.latencies()) == stats.completed

    # Every host-side conservation law still holds per host.
    for node in nodes:
        host = node.stats
        assert host.submitted == (
            host.completed + host.rejected + host.dropped + host.inflight
        ), node.name

    # Percentile monotonicity over the merged fleet population.
    summary = result.summary
    assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
    assert summary["p99_ms"] <= summary["max_ms"]
    assert 0.0 <= summary["cache_hit_rate"] <= 1.0

    # Per-lane terminal counts balance per-lane submissions fleet-wide
    # (router rejections are keyed per model too, via the lane rows).
    lane_total = 0
    for model_name, lane in result.lanes.items():
        assert (
            lane["completed"] + lane["rejected"] + lane["dropped"]
            <= lane["submitted"]
        ), (model_name, lane)
        lane_total += lane["submitted"]
    assert lane_total == sum(n.stats.submitted for n in nodes)
