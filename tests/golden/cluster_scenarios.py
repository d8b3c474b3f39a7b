"""Fixed-seed 2-host cluster scenarios with fully recorded outcomes.

``cluster_golden.json`` pins one fleet run per router policy — the same
user-keyed, drain-interrupted scenario routed round-robin, least-loaded
and consistent-hash — so routing refactors cannot silently shift who
serves what: fleet summary, per-host splits, route counts and the
consistent-hash displacement gauges are all compared exactly (every
recorded number is deterministic simulated arithmetic; the hash ring is
PYTHONHASHSEED-independent by construction).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict

from repro.cluster import ClusterSpec, UserSpec, run_cluster_scenario
from repro.faults import FaultEvent, FaultSpec

from ..serving.conftest import toy_model
from .serving_scenarios import COMMON_KEYS, open_spec

__all__ = ["SCENARIOS"]

SUMMARY_KEYS = COMMON_KEYS + ("hosts", "router_rejected", "cache_hit_rate")

HOST_KEYS = ("submitted", "completed", "dropped", "p50_ms", "p95_ms")


def _cluster_spec(router: str) -> ClusterSpec:
    """The one scenario all three goldens share: user-keyed traffic on 2
    hosts with a mid-run drain+restore, so policies diverge on locality
    AND the drain redistribution path is pinned."""
    drain_restore = FaultSpec(
        events=(
            FaultEvent(t=0.004, kind="host_drain", host="host1"),
            FaultEvent(t=0.009, kind="host_restore", host="host1"),
        )
    )
    return ClusterSpec(
        name=f"golden-{router}",
        scenario=open_spec(
            "golden-cluster", "toy", 29, n_requests=48, slo_s=0.05, faults=drain_restore
        ),
        n_hosts=2,
        router=router,
        router_spread=1,
        users=UserSpec(n_users=48, alpha=1.1, seed=7),
        embcache_slots=256,
    )


def _record(result) -> Dict[str, Any]:
    router = result.front.router
    record: Dict[str, Any] = {
        "summary": {key: result.summary[key] for key in SUMMARY_KEYS},
        "per_host": {
            name: {key: host[key] for key in HOST_KEYS}
            for name, host in result.per_host.items()
        },
        "lanes": result.lanes,
        "routes_by_host": dict(sorted(router.routes_by_host.items())),
        "rejects_by_reason": dict(result.stats.rejects_by_reason),
        "drops_by_reason": {
            node.name: dict(node.stats.drops_by_reason)
            for node in result.front.nodes
            if node.stats.drops_by_reason
        },
    }
    if hasattr(router, "routes_rerouted"):
        record["routes_rerouted"] = router.routes_rerouted
        record["routes_spread"] = router.routes_spread
    return record


def _run(router: str, tracer=None) -> Dict[str, Any]:
    return _record(run_cluster_scenario(_cluster_spec(router), [toy_model()], tracer=tracer))


SCENARIOS = {
    router: partial(_run, router)
    for router in ("round_robin", "least_loaded", "consistent_hash")
}
