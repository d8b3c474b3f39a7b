"""Router policy unit tests: selection, determinism, redistribution.

Routers only read node ``name`` / ``routable`` / load gauges, so these
tests drive them with lightweight fake nodes — policy behaviour is
checked in isolation from the serving stack (which
``test_cluster.py`` covers end to end).
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    ConsistentHashRouter,
    LeastLoadedRouter,
    RoundRobinRouter,
    make_router,
)


class FakeNode:
    def __init__(self, name, inflight=0, queued=0, routable=True):
        self.name = name
        self.inflight = inflight
        self.queued = queued
        self.routable = routable


def fleet(n, **kwargs):
    return [FakeNode(f"host{i}", **kwargs) for i in range(n)]


class TestRoundRobin:
    def test_cycles_over_live_hosts(self):
        router = RoundRobinRouter()
        nodes = fleet(3)
        picks = [router.route(k, "m", nodes).name for k in range(6)]
        assert picks == ["host0", "host1", "host2"] * 2
        assert router.routes_by_host == {"host0": 2, "host1": 2, "host2": 2}

    def test_skips_unroutable_hosts(self):
        router = RoundRobinRouter()
        nodes = fleet(3)
        nodes[1].routable = False
        picks = {router.route(k, "m", nodes).name for k in range(4)}
        assert picks == {"host0", "host2"}

    def test_rotations_are_per_model(self):
        router = RoundRobinRouter()
        nodes = fleet(2)
        assert router.route(0, "a", nodes).name == "host0"
        # Model "b" starts its own rotation from host0.
        assert router.route(0, "b", nodes).name == "host0"
        assert router.route(1, "a", nodes).name == "host1"

    def test_raises_with_no_routable_host(self):
        router = RoundRobinRouter()
        nodes = fleet(2, routable=False)
        with pytest.raises(RuntimeError, match="no routable host"):
            router.route(0, "m", nodes)


class TestLeastLoaded:
    def test_picks_min_inflight_ties_to_placement_order(self):
        router = LeastLoadedRouter()
        nodes = fleet(3)
        nodes[0].inflight = 5
        nodes[1].inflight = 2
        nodes[2].inflight = 2
        assert router.route(0, "m", nodes).name == "host1"

    def test_load_signal_is_inflight_not_queued(self):
        router = LeastLoadedRouter()
        nodes = fleet(2)
        nodes[0].queued = 4
        nodes[1].queued = 1
        nodes[1].inflight = 9
        assert router.route(0, "m", nodes).name == "host0"

    def test_ignores_unroutable_even_if_idle(self):
        router = LeastLoadedRouter()
        nodes = fleet(2)
        nodes[0].routable = False  # idle but draining
        nodes[1].inflight = 100
        assert router.route(0, "m", nodes).name == "host1"


class TestConsistentHash:
    def test_same_key_same_host(self):
        router = ConsistentHashRouter()
        nodes = fleet(4)
        for key in range(50):
            first = router.route(key, "m", nodes).name
            assert router.route(key, "m", nodes).name == first

    def test_mapping_is_stable_across_instances(self):
        """No dependence on PYTHONHASHSEED or instance state: two
        routers agree key for key (goldens rely on this)."""
        nodes = fleet(4)
        a = ConsistentHashRouter()
        b = ConsistentHashRouter()
        for key in range(200):
            assert a.route(key, "m", nodes).name == b.route(key, "m", nodes).name

    def test_keys_spread_over_all_hosts(self):
        router = ConsistentHashRouter()
        nodes = fleet(4)
        for key in range(2000):
            router.route(key, "m", nodes)
        share = {h: c / 2000 for h, c in router.routes_by_host.items()}
        assert len(share) == 4
        assert all(fraction > 0.05 for fraction in share.values()), share

    def test_drain_moves_only_the_drained_hosts_keys(self):
        """The consistent-hashing contract: removing one host reroutes
        exactly the keys that hashed to it; everyone else keeps their
        warm host."""
        nodes = fleet(3)
        router = ConsistentHashRouter()
        keys = list(range(1000))
        before = {k: router.route(k, "m", nodes).name for k in keys}
        nodes[1].routable = False
        router.reset_stats()
        after = {k: router.route(k, "m", nodes).name for k in keys}
        moved = [k for k in keys if before[k] != after[k]]
        displaced = [k for k in keys if before[k] == "host1"]
        assert moved == displaced
        assert displaced, "test vacuous: no keys hashed to host1"
        assert router.routes_rerouted == len(displaced)
        for k in displaced:
            assert after[k] != "host1"

    def test_restore_returns_keys_to_primary(self):
        nodes = fleet(3)
        router = ConsistentHashRouter()
        before = {k: router.route(k, "m", nodes).name for k in range(300)}
        nodes[2].routable = False
        for k in range(300):
            router.route(k, "m", nodes)
        nodes[2].routable = True
        after = {k: router.route(k, "m", nodes).name for k in range(300)}
        assert before == after

    def test_read_spreading_prefers_lighter_replica(self):
        nodes = fleet(4)
        router = ConsistentHashRouter(spread=2)
        key = 7
        primary = ConsistentHashRouter().route(key, "m", nodes).name
        # Load the primary: the spread router should route to the other
        # replica and count the spread.
        next(n for n in nodes if n.name == primary).inflight = 50
        chosen = router.route(key, "m", nodes).name
        assert chosen != primary
        assert router.routes_spread == 1
        assert router.routes_rerouted == 0  # primary was routable

    def test_spread_one_never_counts_spread(self):
        nodes = fleet(4)
        nodes[0].inflight = 99
        router = ConsistentHashRouter(spread=1)
        for key in range(100):
            router.route(key, "m", nodes)
        assert router.routes_spread == 0

    def test_every_host_has_64_ring_points(self):
        router = ConsistentHashRouter()
        nodes = fleet(3)
        ring = router._ring("m", nodes)
        assert len(ring) == 3 * 64
        assert sorted(index for _, index in ring) == sorted(list(range(3)) * 64)
        assert router._ring("m", nodes) is ring  # built once per placement

    def test_validation(self):
        with pytest.raises(ValueError, match=r"ConsistentHashRouter\.spread must be"):
            ConsistentHashRouter(spread=0)


class TestFactoryAndReset:
    def test_make_router(self):
        assert isinstance(make_router("round_robin"), RoundRobinRouter)
        assert isinstance(make_router("least_loaded"), LeastLoadedRouter)
        hashed = make_router("consistent_hash", hash_spread=2)
        assert isinstance(hashed, ConsistentHashRouter) and hashed.spread == 2
        with pytest.raises(ValueError, match="unknown router"):
            make_router("random")

    @pytest.mark.parametrize(
        "factory",
        [
            RoundRobinRouter,
            LeastLoadedRouter,
            lambda: ConsistentHashRouter(spread=2),
        ],
    )
    def test_reset_audit(self, factory):
        """Introspection audit (the PR-5 convention): after
        ``reset_stats()`` every *public* attribute matches a freshly
        built router — new counters cannot dodge the reset.  Underscore
        attributes (rotations, ring caches) are operational state and
        exempt."""
        router = factory()
        nodes = fleet(3)
        nodes[0].inflight = 10  # exercise spread/least-loaded paths
        for key in range(40):
            router.route(key, "m", nodes)
        assert router.routes_by_host
        router.reset_stats()
        fresh = factory()

        def public(obj):
            return {
                k: v for k, v in vars(obj).items() if not k.startswith("_")
            }

        assert public(router) == public(fresh), (
            "reset_stats() left a public router attribute dirty"
        )
