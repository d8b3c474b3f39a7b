"""Cluster front-end integration: placement, lifecycle, fleet accounting.

Everything here runs real fleets — multiple ``InferenceServer`` hosts on
one shared kernel — and audits the fleet conservation invariant

    submitted == completed + rejected + dropped + inflight

through routing, drains, failures and router-level rejections, plus the
per-host-sums-to-cluster-totals contract ``ClusterStats`` is built on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    REASON_NO_HOST,
    ClusterSpec,
    ClusterStats,
    UserPopulation,
    UserSpec,
    build_cluster,
    replica_model,
    run_cluster_scenario,
)
from repro.faults import FaultEvent, FaultSpec
from repro.serving.request import RequestState
from repro.workload import ScenarioSpec, TenantSpec

from ..serving.conftest import toy_model


def open_scenario(
    rate=2000.0, n_requests=40, seed=11, **kwargs
) -> ScenarioSpec:
    return ScenarioSpec(
        name="cluster-open",
        tenants=(
            TenantSpec(
                model="toy",
                arrival="open",
                rate=rate,
                n_requests=n_requests,
                batch_size=2,
            ),
        ),
        backend="ndp",
        seed=seed,
        **kwargs,
    )


def lifecycle(*events) -> FaultSpec:
    """Host lifecycle as fault events: ``("drain", t, host)`` and the like."""
    return FaultSpec(
        events=tuple(
            FaultEvent(t=t, kind=f"host_{action}", host=host)
            for action, t, host in events
        )
    )


def fleet_conserves(stats) -> bool:
    return (
        stats.submitted
        == stats.completed + stats.rejected + stats.dropped + stats.inflight
    )


class TestFleetBasics:
    def test_two_host_run_settles_and_conserves(self):
        result = run_cluster_scenario(
            ClusterSpec(
                name="rr2", scenario=open_scenario(), n_hosts=2,
                router="round_robin",
            ),
            [toy_model()],
        )
        stats = result.stats
        assert stats.inflight == 0
        assert stats.completed == 40
        assert fleet_conserves(stats)
        # Round-robin splits an even request count exactly in half.
        per_host = [n.stats.completed for n in result.front.nodes]
        assert per_host == [20, 20]

    def test_per_host_stats_sum_to_cluster_totals(self):
        result = run_cluster_scenario(
            ClusterSpec(
                name="ch3", scenario=open_scenario(), n_hosts=3,
                router="consistent_hash",
                users=UserSpec(n_users=64, seed=5),
            ),
            [toy_model()],
        )
        stats = result.stats
        nodes = result.front.nodes
        for attr in ("completed", "dropped", "inflight", "goodput"):
            assert getattr(stats, attr) == sum(
                getattr(n.stats, attr) for n in nodes
            ), attr
        assert stats.submitted == stats.router_rejected + sum(
            n.stats.submitted for n in nodes
        )
        merged = sorted(
            latency for n in nodes for latency in n.stats.latencies
        )
        assert sorted(stats.latencies()) == merged
        assert stats.total_lookups() == sum(
            n.stats.total_lookups() for n in nodes
        )

    def test_lane_summary_merges_hosts(self):
        result = run_cluster_scenario(
            ClusterSpec(name="lanes", scenario=open_scenario(), n_hosts=2),
            [toy_model()],
        )
        lane = result.lanes["toy"]
        assert lane["submitted"] == 40
        assert lane["completed"] == result.stats.completed
        assert lane["p50_ms"] <= lane["p95_ms"]

    def test_router_routes_match_host_submissions(self):
        result = run_cluster_scenario(
            ClusterSpec(
                name="routes", scenario=open_scenario(), n_hosts=2,
                router="least_loaded",
            ),
            [toy_model()],
        )
        routes = result.front.router.routes_by_host
        for node in result.front.nodes:
            assert routes.get(node.name, 0) == node.stats.submitted


class TestLifecycle:
    def test_drain_diverts_traffic_and_loses_nothing(self):
        spec = ClusterSpec(
            name="drain",
            scenario=open_scenario(
                rate=2000.0, n_requests=40,
                faults=lifecycle(("drain", 0.005, "host1")),
            ),
            n_hosts=2,
            router="round_robin",
        )
        result = run_cluster_scenario(spec, [toy_model()])
        stats = result.stats
        assert stats.completed == 40  # graceful: nothing lost
        assert stats.dropped == 0 and stats.rejected == 0
        assert fleet_conserves(stats)
        host0, host1 = result.front.nodes
        # host1 took traffic before the drain, none after: host0 ends
        # with strictly more.
        assert 0 < host1.stats.submitted < host0.stats.submitted
        assert host1.server.queue.inflight == 0  # admitted work finished

    def test_fail_sheds_queued_backlog_as_host_down(self):
        # Saturating burst so the failing host holds a real backlog:
        # everything arrives in ~1 ms, service takes far longer.
        spec = ClusterSpec(
            name="fail",
            scenario=open_scenario(
                rate=50000.0, n_requests=60, max_inflight_requests=64,
                faults=lifecycle(("fail", 0.0015, "host1")),
            ),
            n_hosts=2,
            router="round_robin",
        )
        result = run_cluster_scenario(spec, [toy_model()])
        stats = result.stats
        host1 = result.front.node("host1")
        assert host1.stats.dropped > 0, "fail found no backlog to shed"
        assert host1.stats.drops_by_reason == {"host_down": host1.stats.dropped}
        # Dispatched batches still completed on the dead host's devices.
        assert host1.stats.completed > 0
        assert stats.inflight == 0
        assert fleet_conserves(stats)
        assert (
            stats.completed + stats.dropped + stats.rejected
            == spec.scenario.total_requests
        )

    def test_restore_returns_host_to_rotation(self):
        spec = ClusterSpec(
            name="restore",
            scenario=open_scenario(
                rate=1000.0, n_requests=60,
                faults=lifecycle(
                    ("drain", 0.001, "host1"), ("restore", 0.030, "host1")
                ),
            ),
            n_hosts=2,
            router="round_robin",
        )
        result = run_cluster_scenario(spec, [toy_model()])
        host1 = result.front.node("host1")
        assert host1.routable
        # Took traffic both before the drain and after the restore, but
        # missed the window in between.
        host0 = result.front.node("host0")
        assert 0 < host1.stats.submitted < host0.stats.submitted
        assert result.stats.completed == 60
        assert fleet_conserves(result.stats)

    def test_lifecycle_events_are_logged_at_their_instants(self):
        spec = ClusterSpec(
            name="logged",
            scenario=open_scenario(
                rate=1000.0, n_requests=30,
                faults=lifecycle(
                    ("drain", 0.004, "host1"), ("restore", 0.009, "host1")
                ),
            ),
            n_hosts=2,
        )
        log = run_cluster_scenario(spec, [toy_model()]).fault_log
        assert log == [
            {"t": 0.004, "kind": "host_drain", "host": "host1", "device": 0,
             "detail": None},
            {"t": 0.009, "kind": "host_restore", "host": "host1", "device": 0,
             "detail": None},
        ]

    def test_no_routable_host_rejects_at_router(self):
        cluster = build_cluster(
            ClusterSpec(name="norr", scenario=open_scenario(), n_hosts=2),
            [toy_model()],
        )
        cluster.drain("host0")
        cluster.fail("host1")
        model = cluster.models["toy"]
        seen = []
        batch = model.sample_batch(np.random.default_rng(0), 2)
        request = cluster.submit("toy", batch, on_done=seen.append)
        assert request.state is RequestState.REJECTED
        assert request.drop_reason == REASON_NO_HOST
        assert request.request_id == -1
        assert seen == [request]
        stats = cluster.stats
        assert stats.router_rejected == 1
        assert stats.rejects_by_reason == {REASON_NO_HOST: 1}
        assert stats.settled == 1  # settles instantly, fleet-side only
        for node in cluster.nodes:
            assert node.stats.submitted == 0
        assert fleet_conserves(stats)
        # Restoring a host resumes normal admission.
        cluster.restore("host0")
        ok = cluster.submit("toy", model.sample_batch(np.random.default_rng(1), 2))
        assert ok.state is not RequestState.REJECTED


class TestPlacement:
    def test_placement_subsets_hold_traffic(self):
        scenario = ScenarioSpec(
            name="placed",
            tenants=(
                TenantSpec(model="hot", arrival="open", rate=1000.0, n_requests=20),
                TenantSpec(model="cold", arrival="open", rate=1000.0, n_requests=20),
            ),
            backend="ndp",
            seed=3,
        )
        spec = ClusterSpec(
            name="placement",
            scenario=scenario,
            n_hosts=3,
            router="round_robin",
            placement={"cold": (2,)},  # hot defaults to all three hosts
        )
        result = run_cluster_scenario(
            spec, [toy_model("hot", seed=1), toy_model("cold", seed=2)]
        )
        nodes = result.front.nodes
        assert [n.stats.submitted_by_model.get("cold", 0) for n in nodes] == [
            0,
            0,
            20,
        ]
        assert all(n.stats.submitted_by_model.get("hot", 0) > 0 for n in nodes)
        assert fleet_conserves(result.stats)

    def test_replicas_share_table_data(self):
        model = toy_model()
        clone = replica_model(model)
        assert clone is not model
        for name, table in model.tables.items():
            assert clone.tables[name] is not table
            assert clone.tables[name].data is table.data

    def test_replicated_hosts_serve_identical_values(self):
        """A request's SLS values must not depend on which host served
        it — replicas share the original's table data."""
        cluster = build_cluster(
            ClusterSpec(name="ident", scenario=open_scenario(), n_hosts=2),
            [toy_model()],
        )
        model = cluster.models["toy"]
        batch = model.sample_batch(np.random.default_rng(7), 2)
        reference = model.reference_emb(batch)
        done = []
        for _ in range(2):  # round-robin: one request per host
            cluster.submit("toy", batch, on_done=done.append)
        cluster.run_until_settled()
        assert len(done) == 2
        assert {r.state for r in done} == {RequestState.COMPLETE}
        for request in done:
            for name, expected in reference.items():
                np.testing.assert_allclose(
                    request.values[name], expected, rtol=1e-5
                )

    def test_placement_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            ClusterSpec(
                name="bad",
                scenario=open_scenario(),
                n_hosts=2,
                placement={"toy": (5,)},
            )
        with pytest.raises(ValueError, match="unknown model"):
            ClusterSpec(
                name="bad",
                scenario=open_scenario(),
                n_hosts=2,
                placement={"nope": (0,)},
            )
        with pytest.raises(ValueError, match="unknown host"):
            ClusterSpec(
                name="bad",
                scenario=open_scenario(faults=lifecycle(("drain", 0.1, "host7"))),
                n_hosts=2,
            )
        with pytest.raises(ValueError, match="kind"):
            lifecycle(("reboot", 0.1, "host0"))

    @pytest.mark.parametrize("alpha", [-0.5, float("nan")])
    def test_user_population_alpha_must_be_a_number_at_least_zero(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            UserPopulation(8, alpha=alpha)

    @pytest.mark.parametrize(
        "knobs, match",
        [
            (dict(n_users=0), "n_users"),
            (dict(alpha=float("nan")), "alpha"),
            (dict(reuse=float("nan")), "reuse"),
            (dict(reuse=1.5), "reuse"),
        ],
        ids=["n_users-zero", "alpha-nan", "reuse-nan", "reuse-above-one"],
    )
    def test_user_spec_refuses_what_its_population_would(self, knobs, match):
        with pytest.raises(ValueError, match=match):
            UserSpec(**{"n_users": 8, **knobs})

    @pytest.mark.parametrize(
        "options, match",
        [
            (dict(router="least_loaded", least_loaded_by="bogus"), "load signal"),
            (dict(router="consistent_hash", router_vnodes=0), "vnodes"),
            (dict(router="consistent_hash", router_spread=0), "spread"),
        ],
        ids=["least_loaded_by", "router_vnodes", "router_spread"],
    )
    def test_router_options_validated_at_construction(self, options, match):
        """The spec builds the router it describes, options included —
        not a default-option router of the same name — so a bad option
        fails here rather than later inside ``build_cluster``."""
        with pytest.raises(ValueError, match=match):
            ClusterSpec(name="bad", scenario=open_scenario(), **options)


class TestClusterResetAudit:
    """The PR-5 reset-audit convention extended to the cluster tier:
    after ``Cluster.reset_stats()`` every stats-bearing object in the
    fleet — per-host ServingStats, the router, ClusterStats — matches a
    freshly built counterpart attribute for attribute."""

    def _served_cluster(self):
        spec = ClusterSpec(
            name="audit",
            scenario=open_scenario(
                rate=3000.0, n_requests=30,
                faults=lifecycle(
                    ("drain", 0.004, "host1"), ("restore", 0.008, "host1")
                ),
            ),
            n_hosts=2,
            router="consistent_hash",
            router_spread=2,
            users=UserSpec(n_users=32, seed=9),
            embcache_slots=256,
        )
        return run_cluster_scenario(spec, [toy_model()]).front

    @staticmethod
    def _public(obj):
        return {k: v for k, v in vars(obj).items() if not k.startswith("_")}

    @staticmethod
    def _state(value):
        # Slot-holding values (e.g. Accumulator) compare by identity;
        # unpack them so the audit compares contents.
        slots = getattr(type(value), "__slots__", None)
        if slots:
            return {slot: getattr(value, slot) for slot in slots}
        return value

    def test_fleet_reset_is_indistinguishable_from_fresh(self):
        cluster = self._served_cluster()
        router = cluster.router
        # Audit is only meaningful once every gauge saw real work.
        assert cluster.stats.completed > 0
        assert router.routes_by_host
        assert router.routes_rerouted > 0
        assert any(n.stats.total_cache_hits() > 0 for n in cluster.nodes)

        # Seed a router-level rejection so ClusterStats' own counters
        # are dirty too.
        for node in cluster.nodes:
            node.drain()
        model = cluster.models["toy"]
        cluster.submit("toy", model.sample_batch(np.random.default_rng(0), 1))
        assert cluster.stats.router_rejected == 1
        for node in cluster.nodes:
            node.restore()

        cluster.reset_stats()

        fresh_cluster_stats = ClusterStats(cluster.sim, cluster.nodes)
        assert self._public(cluster.stats) == self._public(
            fresh_cluster_stats
        ), "Cluster.reset_stats() left a ClusterStats attribute dirty"
        fresh_router = type(router)(
            vnodes=router.vnodes, spread=router.spread
        )
        assert self._public(router) == self._public(fresh_router), (
            "Cluster.reset_stats() left a router attribute dirty"
        )
        from repro.serving.stats import ServingStats

        for node in cluster.nodes:
            fresh = ServingStats(cluster.sim)
            recorded = {
                k: v for k, v in vars(node.stats).items() if k != "sim"
            }
            expected = {k: v for k, v in vars(fresh).items() if k != "sim"}
            assert set(recorded) == set(expected)
            for key, value in expected.items():
                assert self._state(recorded[key]) == self._state(value), (
                    f"host {node.name} stats left {key!r} dirty after "
                    f"fleet reset"
                )

    def test_aggregates_follow_host_windows(self):
        cluster = self._served_cluster()
        assert cluster.stats.completed > 0
        cluster.reset_stats()
        assert cluster.stats.submitted == 0
        assert cluster.stats.settled == 0
        assert cluster.stats.cache_hit_rate() == 0.0
        assert cluster.stats.latencies() == []
        assert cluster.stats.busy_span() == 0.0
