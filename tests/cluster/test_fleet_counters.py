"""``ClusterStats`` keeps its arrival / terminal counters incrementally.

They used to be summed over the hosts on every read, so they could not
disagree with the hosts; now they are separate state fed by every host's
``recorders``, and this property test is what holds them to the sum:
after any sequence of submissions, kernel progress, drains, failures,
restores and fleet resets, every counter equals the sum over hosts (plus
the router's own rejections where the old aggregate added them).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterSpec, UserSpec, build_cluster
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
