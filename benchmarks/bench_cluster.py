"""Cluster routing benchmark: locality-aware routing at fleet scale.

Scales the serving stack ~100x past the single-host benches — a 409,600
row/table model (100x the 4,096-row toy), 32k rps offered across a
4-host fleet, 4,000 Zipf-popular users — and routes the *same* user-
keyed traffic three ways: round-robin, least-loaded and consistent-hash
with read spreading (``spread=2``).  Records per-policy tail latency,
fleet embedding-cache hit rate and route distribution to
``BENCH_cluster.json``, plus a drain scenario that takes one host out
mid-run.

Contract (asserted in both modes — the acceptance bar the cluster tier
exists for):

* consistent-hash routing beats round-robin on **both** p99 latency and
  fleet embedding-cache hit rate: each host serves a stable ~1/4 slice
  of the user base, so its device caches stay warm for those users,
  while read spreading keeps hot users from melting one host's tail;
* a drained host's traffic redistributes (the ring reroutes only its
  keys) **without violating conservation**: nothing is lost, and
  ``submitted == completed + rejected + dropped`` fleet-wide;
* every policy conserves requests.

Run standalone (writes ``BENCH_cluster.json``)::

    PYTHONPATH=src python benchmarks/bench_cluster.py           # full
    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke   # CI

or through pytest-benchmark with the rest of the bench suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_cluster.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.cluster import (
    ClusterSpec,
    UserSpec,
    replica_model,
    run_cluster_scenario,
)
from repro.faults import FaultEvent, FaultSpec
from repro.models.dlrm import DlrmConfig, DlrmModel
from repro.workload import ScenarioSpec, TenantSpec

try:
    from conftest import run_once  # pytest-benchmark path (rootdir import)
except ImportError:  # standalone `python benchmarks/...` run
    run_once = None

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"

SEED = 13
N_HOSTS = 4
TABLE_ROWS = 409_600        # 100x the single-host toy model's id space
RATE_RPS = 32_000.0         # ~100x the single-host serving bench loads
N_REQUESTS = 480
N_USERS = 4_000
EMBCACHE_SLOTS = 8_192
SPREAD = 2                  # read spreading for the consistent-hash run

# The smoke contract must hold at the same fleet scale (the claim is
# about ≥4 hosts under ~100x load); smoke trims the *extra* context
# runs, not the scale.
FULL_ONLY_ROUTERS = ("least_loaded",)


def fleet_model() -> DlrmModel:
    return DlrmModel(
        DlrmConfig(
            name="fleet",
            dense_in=16,
            bottom_mlp=(32, 16),
            top_mlp=(32, 16),
            num_tables=2,
            table_rows=TABLE_ROWS,
            dim=16,
            lookups=8,
        ),
        seed=1,
    )


def _scenario(faults: Optional[FaultSpec] = None) -> ScenarioSpec:
    return ScenarioSpec(
        name="bench-cluster",
        tenants=(
            TenantSpec(
                model="fleet",
                arrival="open",
                rate=RATE_RPS,
                n_requests=N_REQUESTS,
                batch_size=2,
            ),
        ),
        backend="ndp",
        max_inflight_requests=512,
        seed=SEED,
        faults=faults,
    )


def _cluster_spec(
    router: str, spread: int = 1, faults: Optional[FaultSpec] = None
) -> ClusterSpec:
    return ClusterSpec(
        name=f"bench-{router}",
        scenario=_scenario(faults),
        n_hosts=N_HOSTS,
        router=router,
        router_spread=spread,
        users=UserSpec(n_users=N_USERS, alpha=1.05, seed=3),
        embcache_slots=EMBCACHE_SLOTS,
    )


def _row(result) -> Dict[str, object]:
    stats = result.stats
    assert stats.inflight == 0
    assert stats.submitted == stats.completed + stats.rejected + stats.dropped, (
        "fleet conservation violated"
    )
    router = result.front.router
    row: Dict[str, object] = {
        key: result.summary[key]
        for key in (
            "submitted",
            "completed",
            "rejected",
            "dropped",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "throughput_rps",
            "cache_hit_rate",
            "router_rejected",
        )
    }
    row["routes_by_host"] = dict(sorted(router.routes_by_host.items()))
    if hasattr(router, "routes_rerouted"):
        row["routes_rerouted"] = router.routes_rerouted
        row["routes_spread"] = router.routes_spread
    return row


def run_all(smoke: bool) -> Dict[str, object]:
    base = fleet_model()

    def run(router: str, spread: int = 1, faults=None):
        # Each run gets a fresh fleet; replica_model shares the base
        # model's table data so only backends rebuild between runs.
        return run_cluster_scenario(
            _cluster_spec(router, spread=spread, faults=faults),
            [replica_model(base)],
        )

    report: Dict[str, object] = {
        "mode": "smoke" if smoke else "full",
        "n_hosts": N_HOSTS,
        "table_rows": TABLE_ROWS,
        "rate_rps": RATE_RPS,
        "n_requests": N_REQUESTS,
        "n_users": N_USERS,
        "embcache_slots": EMBCACHE_SLOTS,
        "consistent_hash_spread": SPREAD,
    }
    routers: Dict[str, Dict[str, object]] = {
        "round_robin": _row(run("round_robin")),
        "consistent_hash": _row(run("consistent_hash", spread=SPREAD)),
    }
    if not smoke:
        for name in FULL_ONLY_ROUTERS:
            routers[name] = _row(run(name))
        # Context: the same ring without read spreading — better hit
        # rate still, but the hot host's queue inflates the tail; the
        # spread knob is what converts locality into a p99 win.
        routers["consistent_hash_nospread"] = _row(
            run("consistent_hash", spread=1)
        )
    report["routers"] = routers

    # Drain scenario: one host leaves the rotation a third of the way
    # into the run and never returns; the ring must reroute only its
    # keys and the fleet must account for every request.
    drained = run(
        "consistent_hash",
        spread=SPREAD,
        faults=FaultSpec(
            events=(FaultEvent(t=0.005, kind="host_drain", host="host2"),)
        ),
    )
    drain_row = _row(drained)
    host2 = drained.front.node("host2")
    other_submitted = [
        node.stats.submitted
        for node in drained.front.nodes
        if node.name != "host2"
    ]
    drain_row["drained_host_submitted"] = host2.stats.submitted
    drain_row["min_other_host_submitted"] = min(other_submitted)
    drain_row["drained_host_inflight_end"] = host2.server.queue.inflight
    report["drain"] = drain_row

    rr, ch = routers["round_robin"], routers["consistent_hash"]
    report["gains"] = {
        "ch_p99_over_rr": ch["p99_ms"] / max(rr["p99_ms"], 1e-9),
        "ch_hit_rate_over_rr": (
            ch["cache_hit_rate"] / max(rr["cache_hit_rate"], 1e-9)
        ),
    }
    return report


def check_contract(report: Dict[str, object]) -> None:
    routers = report["routers"]
    rr, ch = routers["round_robin"], routers["consistent_hash"]
    assert report["n_hosts"] >= 4, "the fleet claim is about >=4 hosts"
    assert ch["p99_ms"] < rr["p99_ms"], (
        f"consistent-hash routing must beat round-robin on p99 "
        f"({ch['p99_ms']:.2f} >= {rr['p99_ms']:.2f} ms)"
    )
    assert ch["cache_hit_rate"] > rr["cache_hit_rate"], (
        f"consistent-hash routing must beat round-robin on fleet cache "
        f"hit rate ({ch['cache_hit_rate']:.3f} <= {rr['cache_hit_rate']:.3f})"
    )
    for name, row in routers.items():
        assert row["submitted"] == (
            row["completed"] + row["rejected"] + row["dropped"]
        ), (name, row)
    drain = report["drain"]
    # Graceful drain: redistributed, nothing lost, invariant intact.
    assert drain["submitted"] == (
        drain["completed"] + drain["rejected"] + drain["dropped"]
    ), drain
    assert drain["dropped"] == 0 and drain["rejected"] == 0, drain
    assert drain["routes_rerouted"] > 0, "drain displaced no traffic?"
    assert (
        drain["drained_host_submitted"] < drain["min_other_host_submitted"]
    ), drain
    assert drain["drained_host_inflight_end"] == 0, (
        "drained host failed to finish its admitted work"
    )


def test_cluster_routing(benchmark):
    report = run_once(benchmark, run_all, True)
    benchmark.extra_info["experiment"] = "cluster_routing"
    benchmark.extra_info["routers"] = {
        name: {
            k: row[k]
            for k in ("p99_ms", "cache_hit_rate", "completed", "dropped")
        }
        for name, row in report["routers"].items()
    }
    check_contract(report)


def main(argv: List[str]) -> None:
    smoke = "--smoke" in argv
    report = run_all(smoke)
    OUTPUT.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUTPUT}")
    for name, row in report["routers"].items():
        print(
            f"{name:>24}: p50 {row['p50_ms']:6.2f}ms  p95 {row['p95_ms']:6.2f}ms  "
            f"p99 {row['p99_ms']:6.2f}ms  cache hit {row['cache_hit_rate']:.3f}"
        )
    drain = report["drain"]
    print(
        f"{'drain (ch)':>24}: p99 {drain['p99_ms']:6.2f}ms  rerouted "
        f"{drain['routes_rerouted']}  drained-host submitted "
        f"{drain['drained_host_submitted']} vs min-other "
        f"{drain['min_other_host_submitted']}"
    )
    check_contract(report)
    gains = report["gains"]
    print(
        f"cluster contract holds at {report['n_hosts']} hosts / "
        f"{report['rate_rps']:.0f} rps: consistent-hash p99 is "
        f"{gains['ch_p99_over_rr']:.2f}x round-robin's, cache hit rate "
        f"{gains['ch_hit_rate_over_rr']:.2f}x; drain redistributed "
        f"cleanly"
    )


if __name__ == "__main__":
    main(sys.argv[1:])
