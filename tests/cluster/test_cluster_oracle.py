"""Oracle regression: a 1-host cluster IS the standalone serving stack.

The cluster tier must be a conservative extension: with one host behind
a :class:`RoundRobinRouter` (no users, no events), the fleet runner has
to reproduce :func:`repro.workload.run_scenario` **bit-identically** —
same counters, same latency values, same per-request *timestamps* —
because the submit path adds zero simulator events and zero RNG draws,
and the host is built by the exact same recipe (system sizing, serving
config, generator seeds).  Any drift here means the cluster layer
perturbed the single-host semantics it claims to wrap.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSpec, run_cluster_scenario
from repro.workload import ScenarioSpec, TenantSpec, run_scenario

from ..serving.conftest import toy_model


def mixed_spec(seed: int) -> ScenarioSpec:
    """Open overload + closed clients with full QoS — the golden-file
    scenario shape, so the oracle covers admission, deadline drops,
    priority lanes and both arrival models at once."""
    return ScenarioSpec(
        name="oracle",
        tenants=(
            TenantSpec(
                model="hi",
                arrival="open",
                rate=2500.0,
                n_requests=24,
                batch_size=2,
                slo_s=0.02,
                priority=1,
            ),
            TenantSpec(
                model="lo",
                arrival="closed",
                num_clients=4,
                requests_per_client=4,
                think_time_s=0.002,
                batch_size=2,
                slo_s=0.05,
            ),
        ),
        backend="ndp",
        max_inflight_requests=32,
        max_batch_requests=4,
        deadline_drop=True,
        drop_headroom_s=0.004,
        seed=seed,
    )


def models():
    return [toy_model("hi", seed=1), toy_model("lo", seed=2)]


@pytest.mark.parametrize("seed", [17, 40409])
def test_one_host_cluster_matches_standalone_bitwise(seed):
    spec = mixed_spec(seed)
    standalone = run_scenario(spec, models())
    clustered = run_cluster_scenario(
        ClusterSpec(
            name="oracle-1", scenario=spec, n_hosts=1, router="round_robin"
        ),
        models(),
    )
    host = clustered.front.nodes[0].stats
    ref = standalone.stats

    # Raw per-request records: values AND timestamps, exact equality.
    assert host.latencies == ref.latencies
    assert host.queue_delays == ref.queue_delays
    assert host.emb_latencies == ref.emb_latencies
    assert host.arrival_times == ref.arrival_times
    assert host.first_arrival == ref.first_arrival
    assert host.last_completion == ref.last_completion

    # Every counter and breakdown map.
    for attr in (
        "submitted",
        "completed",
        "rejected",
        "dropped",
        "goodput",
        "deadline_misses",
        "max_inflight",
        "batches_dispatched",
        "submitted_by_model",
        "completed_by_model",
        "rejected_by_model",
        "dropped_by_model",
        "goodput_by_model",
        "rejects_by_reason",
        "drops_by_reason",
        "shard_lookups",
        "shard_cache_hits",
        "sls_ops",
        "sls_busy_s",
        "dense_jobs",
        "dense_busy_s",
    ):
        assert getattr(host, attr) == getattr(ref, attr), attr

    # Derived reports line up too (summary via the fleet aggregator).
    assert standalone.lanes == clustered.lanes
    for key, value in standalone.summary.items():
        if key in clustered.summary:
            assert clustered.summary[key] == value, key


def test_cluster_summary_adds_only_fleet_keys():
    """The fleet summary is the standalone summary column-for-column
    plus fleet-only gauges — nothing renamed, nothing dropped except the
    per-host batching/hostpool means that don't aggregate."""
    spec = mixed_spec(17)
    standalone = run_scenario(spec, models())
    clustered = run_cluster_scenario(
        ClusterSpec(name="keys", scenario=spec, n_hosts=1), models()
    )
    shared = set(standalone.summary) & set(clustered.summary)
    assert {
        "submitted",
        "completed",
        "rejected",
        "dropped",
        "goodput",
        "throughput_rps",
        "goodput_rps",
        "p50_ms",
        "p95_ms",
        "p99_ms",
        "mean_queue_delay_ms",
    } <= shared
    assert {"hosts", "router_rejected", "cache_hit_rate"} <= set(
        clustered.summary
    )
