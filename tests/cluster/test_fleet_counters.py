"""``ClusterStats`` against its hosts: counters and derived numbers.

``ClusterStats`` keeps its arrival / terminal counters incrementally.

They used to be summed over the hosts on every read, so they could not
disagree with the hosts; now they are separate state fed by every host's
``recorders``, and this property test is what holds them to the sum:
after any sequence of submissions, kernel progress, drains, failures,
restores and fleet resets, every counter equals the sum over hosts (plus
the router's own rejections where the old aggregate added them).

Every *derived* number has one definition, in ``repro.serving.stats``,
over a sequence of host windows; the second property holds a fleet to
that definition applied to its hosts' windows, holds the definition to a
plain sum-over-hosts oracle written out here, and holds a one-host fleet
to the host's own numbers.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.cluster import ClusterSpec, UserSpec, build_cluster
from repro.serving import stats as shared
from repro.sim.stats import rank_quantile
from repro.workload import ScenarioSpec, TenantSpec

from ..serving.conftest import toy_model

HOSTS = ("host0", "host1", "host2")


def small_fleet():
    spec = ClusterSpec(
        name="counters",
        scenario=ScenarioSpec(
            name="counters",
            tenants=(
                TenantSpec(model="toy", arrival="open", rate=1000.0, n_requests=1),
            ),
            backend="ndp",
            # A tight in-flight limit so admission rejects happen too.
            max_inflight_requests=3,
        ),
        n_hosts=len(HOSTS),
        router="consistent_hash",
        users=UserSpec(n_users=16, seed=2),
    )
    return build_cluster(spec, [toy_model()])


def assert_fleet_equals_host_sums(cluster):
    stats, hosts = cluster.stats, [n.stats for n in cluster.nodes]
    router = stats.router_rejected
    assert stats.submitted == sum(h.submitted for h in hosts) + router
    assert stats.completed == sum(h.completed for h in hosts)
    assert stats.rejected == sum(h.rejected for h in hosts) + router
    assert stats.dropped == sum(h.dropped for h in hosts)
    assert stats.settled == sum(h.settled for h in hosts) + router


operations = st.one_of(
    st.tuples(st.just("submit"), st.integers(1, 6)),
    st.tuples(st.just("submit_to_host"), st.sampled_from(HOSTS)),
    st.tuples(st.just("step"), st.integers(1, 400)),
    st.tuples(st.just("drain"), st.sampled_from(HOSTS)),
    st.tuples(st.just("fail"), st.sampled_from(HOSTS)),
    st.tuples(st.just("restore"), st.sampled_from(HOSTS)),
    st.tuples(st.just("reset_stats"), st.none()),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(operations, min_size=1, max_size=25))
def test_fleet_counters_equal_the_sum_over_hosts(ops):
    cluster = small_fleet()
    model = cluster.models["toy"]
    rng = np.random.default_rng(0)
    for op, arg in ops:
        if op == "submit":
            for _ in range(arg):
                cluster.submit("toy", model.sample_batch(rng, 2))
        elif op == "submit_to_host":
            # Traffic that bypasses the router still reaches the fleet.
            cluster.node(arg).server.submit("toy", model.sample_batch(rng, 2))
        elif op == "step":
            for _ in range(arg):
                if not cluster.sim.step():
                    break
        elif op == "reset_stats":
            cluster.reset_stats()
        else:
            getattr(cluster, op)(arg)
        assert_fleet_equals_host_sums(cluster)
    cluster.run_until_settled()
    assert_fleet_equals_host_sums(cluster)
    assert cluster.stats.inflight == 0


# ----------------------------------------------------------------------
# A fleet is its hosts, merged
# ----------------------------------------------------------------------
LANES = ("a", "b")
QUANTILES = (0.0, 0.5, 0.95, 0.99, 1.0)


def qos_fleet(n_hosts):
    """Two lanes, a tight in-flight limit (admission rejects) and a
    deadline tight enough that queued requests get shed (drops)."""
    spec = ClusterSpec(
        name="merged",
        scenario=ScenarioSpec(
            name="merged",
            tenants=tuple(
                TenantSpec(
                    model=lane, arrival="open", rate=1000.0, n_requests=1,
                    slo_s=1.5e-3,
                )
                for lane in LANES
            ),
            backend="ndp",
            max_inflight_requests=4,
            max_batch_requests=2,
            max_inflight_batches_per_worker=1,
            deadline_drop=True,
        ),
        n_hosts=n_hosts,
        embcache_slots=64,
    )
    return build_cluster(spec, [toy_model(lane, seed=i) for i, lane in enumerate(LANES)])


def assert_fleet_is_its_hosts_merged(cluster):
    fleet = cluster.stats
    windows = [node.stats for node in cluster.nodes]
    latencies = [x for w in windows for x in w.latencies]
    summary = fleet.summary()

    # 1. The fleet reports the shared definition applied to its hosts.
    expected = shared.headline_summary(fleet, windows, latencies)
    shared_keys = set(summary) & set(windows[0].summary())
    assert shared_keys == set(expected)
    assert {key: summary[key] for key in shared_keys} == expected
    assert fleet.lane_summary() == shared.lane_summary(windows)
    assert fleet.cache_hit_rate() == shared.cache_hit_rate(windows)
    assert fleet.busy_span() == shared.busy_span(windows)
    assert fleet.total_lookups() == shared.shard_total(windows, "shard_lookups")
    assert fleet.total_cache_hits() == shared.shard_total(windows, "shard_cache_hits")

    # 2. The shared definition is the plain merge: sums of host counts,
    #    ranks over the merged population, the union of the busy spans.
    router = fleet.router_rejected
    assert summary["submitted"] == sum(w.submitted for w in windows) + router
    assert summary["rejected"] == sum(w.rejected for w in windows) + router
    for key in ("completed", "dropped", "goodput"):
        assert summary[key] == sum(getattr(w, key) for w in windows)
    ordered = sorted(latencies)
    for q in QUANTILES:
        assert fleet.percentile(q) == rank_quantile(ordered, q)
    assert summary["p99_ms"] == rank_quantile(ordered, 0.99) * 1e3
    firsts = [w.first_arrival for w in windows if w.first_arrival is not None]
    lasts = [w.last_completion for w in windows if w.last_completion is not None]
    if firsts and lasts:
        span = max(lasts) - min(firsts)
        assert fleet.busy_span() == span
        if span > 0:
            assert summary["throughput_rps"] == fleet.completed / span
    lookups = sum(w.total_lookups() for w in windows)
    hits = sum(w.total_cache_hits() for w in windows)
    assert fleet.cache_hit_rate() == (hits / lookups if lookups else 0.0)
    lanes = fleet.lane_summary()
    assert set(lanes) == {m for w in windows for m in w.submitted_by_model}
    for lane, row in lanes.items():
        assert row["completed"] == sum(
            w.completed_by_model.get(lane, 0) for w in windows
        )
        lane_lat = sorted(
            x for w in windows for x in w.latencies_by_model.get(lane, [])
        )
        assert row["p95_ms"] == rank_quantile(lane_lat, 0.95) * 1e3

    # 3. One host: the fleet's numbers are that host's, bit for bit
    #    (router rejections are the one thing only the fleet saw).
    if len(windows) == 1:
        (host,) = windows
        own = host.summary()
        own["submitted"] += router
        own["rejected"] += router
        assert {key: summary[key] for key in shared_keys} == {
            key: own[key] for key in shared_keys
        }
        assert fleet.lane_summary() == host.lane_summary()
        assert fleet.cache_hit_rate() == host.cache_hit_rate()
        assert fleet.busy_span() == host.busy_span()
        for q in QUANTILES:
            assert fleet.percentile(q) == host.percentile(q)


host_index = st.integers(0, 3)
merged_operations = st.one_of(
    st.tuples(st.just("submit"), st.integers(1, 8)),
    st.tuples(st.just("step"), st.integers(1, 600)),
    st.tuples(st.just("drain"), host_index),
    st.tuples(st.just("fail"), host_index),
    st.tuples(st.just("restore"), host_index),
    st.tuples(st.just("reset_stats"), st.none()),
)


@settings(max_examples=40, deadline=None)
@given(
    n_hosts=st.integers(1, 4),
    ops=st.lists(merged_operations, min_size=1, max_size=20),
)
# Hosts whose first arrivals differ (the busy span is a union, not one
# host's), a mid-run reset under overload, and a fleet with no host up.
@example(n_hosts=2, ops=[("submit", 1), ("step", 50), ("submit", 1), ("step", 600)])
@example(
    n_hosts=3,
    ops=[("submit", 8), ("step", 300), ("submit", 8), ("reset_stats", None),
         ("submit", 8), ("step", 600)],
)
@example(n_hosts=1, ops=[("fail", 0), ("submit", 3), ("restore", 0), ("submit", 2)])
def test_fleet_derived_metrics_are_the_shared_definition_over_its_hosts(n_hosts, ops):
    cluster = qos_fleet(n_hosts)
    rng = np.random.default_rng(0)
    for op, arg in ops:
        if op == "submit":
            for i in range(arg):
                lane = LANES[i % len(LANES)]
                cluster.submit(lane, cluster.models[lane].sample_batch(rng, 2))
        elif op == "step":
            for _ in range(arg):
                if not cluster.sim.step():
                    break
        elif op == "reset_stats":
            cluster.reset_stats()
        else:
            getattr(cluster, op)(f"host{arg % n_hosts}")
        assert_fleet_is_its_hosts_merged(cluster)
    cluster.run_until_settled()
    assert_fleet_is_its_hosts_merged(cluster)
