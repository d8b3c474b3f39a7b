"""Fault-tolerance benchmark: tail latency under a fail-slow host.

The fleet-scale tail story RecSSD's healthy-device numbers skip: one
fail-slow SSD host (12x flash service inflation) in a 4-host
consistent-hash fleet. Routed naively, ~1/4 of requests land on the
slow host and fleet p99 explodes; with the tolerance layer on — hedged
requests backing up slow attempts plus an EWMA circuit breaker ejecting
the host from routing — the fleet tail stays within 2x of the healthy
baseline for <10% extra offered work.

Three runs of identical traffic into ``BENCH_faults.json``:

* ``healthy``  — no faults, no tolerance (the baseline tail);
* ``exposed``  — one fail-slow host, tolerance off (the damage);
* ``tolerant`` — same fault, hedged requests + circuit breaker.

Contract (asserted in both modes):

* the fault is real: ``exposed`` p99 >= 2x ``healthy`` p99;
* tolerance works: ``tolerant`` p99 < 2x ``healthy`` p99;
* it is cheap: extra host-level attempts (hedges + retries) are <10%
  of the logical request count;
* nothing is lost: every run conserves requests, and the tolerant run
  settles and completes every logical request.

Run standalone (writes ``BENCH_faults.json``)::

    PYTHONPATH=src python benchmarks/bench_faults.py           # full
    PYTHONPATH=src python benchmarks/bench_faults.py --smoke   # CI

or through pytest-benchmark with the rest of the bench suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_faults.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.cluster import ClusterSpec, replica_model, run_cluster_scenario
from repro.faults import BreakerConfig, FaultEvent, FaultSpec, ToleranceConfig
from repro.models.dlrm import DlrmConfig, DlrmModel
from repro.workload import ScenarioSpec, TenantSpec

try:
    from conftest import run_once  # pytest-benchmark path (rootdir import)
except ImportError:  # standalone `python benchmarks/...` run
    run_once = None

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_faults.json"

SEED = 13
N_HOSTS = 4
TABLE_ROWS = 409_600
RATE_RPS = 2_400.0
N_REQUESTS = 400
SLOW_HOST = "host2"
SLOW_FACTOR = 12.0          # >= 10x: the acceptance bar's fail-slow device

# Tolerance knobs, sized off the measured healthy tail (p50 ~ 1.0 ms,
# p95 ~ 1.8 ms, p99 ~ 2.4 ms at this load): hedge just past the healthy
# p99 — the tail-at-scale recipe, sized so healthy requests rarely pay
# for a backup — and eject on two completions
# over ~4x the healthy p99, a bar only a genuinely sick host can clear
# (the fail-slow host serves at tens of ms).  Two sizing hazards, both
# found the hard way: the breaker threshold must sit well ABOVE the
# healthy tail (near the healthy p95, hedge overhead pushes good hosts
# over it and the breaker cascades), and the fleet needs utilization
# headroom to absorb the ejected host's remapped quarter of the traffic
# (without it the survivors saturate, cross the threshold, and cascade
# too).  No per-attempt timeout here: a timeout on a dispatched attempt
# buys a *second* backup on top of the hedge, and the <10% offered-work
# budget only pays for one.
TOLERANCE = ToleranceConfig(
    max_retries=1,
    backoff_s=0.0,
    hedge_after_s=0.0025,
    breaker=BreakerConfig(
        latency_threshold_s=0.010,
        ewma_alpha=0.3,
        min_samples=2,
        # Past the whole run: probing back in is unit-tested; the bench
        # claim is about ejection holding the tail.
        probe_after_s=1.0,
    ),
)


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


def _spec(
    name: str,
    faults: Optional[FaultSpec],
    tolerance: Optional[ToleranceConfig],
) -> ClusterSpec:
    scenario = ScenarioSpec(
        name=f"bench-faults-{name}",
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
    return ClusterSpec(
        name=f"bench-faults-{name}",
        scenario=scenario,
        n_hosts=N_HOSTS,
        router="consistent_hash",
        tolerance=tolerance,
    )


def _fail_slow() -> FaultSpec:
    return FaultSpec(
        events=(
            FaultEvent(
                t=0.0, kind="fail_slow", host=SLOW_HOST, factor=SLOW_FACTOR
            ),
        )
    )


def _row(result) -> Dict[str, object]:
    stats = result.stats
    assert stats.inflight == 0
    assert stats.submitted == stats.completed + stats.rejected + stats.dropped, (
        "fleet conservation violated"
    )
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
            "router_rejected",
        )
    }
    row["per_host_completed"] = {
        node.name: node.stats.completed for node in result.front.nodes
    }
    if result.front.tolerance is not None:
        row["tolerance"] = stats.tolerance_summary()
    if result.fault_log:
        row["fault_log"] = result.fault_log
    return row


def run_all(smoke: bool) -> Dict[str, object]:
    base = fleet_model()

    def run(name: str, faults=None, tolerance=None):
        return run_cluster_scenario(
            _spec(name, faults, tolerance), [replica_model(base)]
        )

    report: Dict[str, object] = {
        "mode": "smoke" if smoke else "full",
        "n_hosts": N_HOSTS,
        "rate_rps": RATE_RPS,
        "n_requests": N_REQUESTS,
        "slow_host": SLOW_HOST,
        "slow_factor": SLOW_FACTOR,
        "tolerance_config": TOLERANCE.describe(),
    }
    report["runs"] = {
        "healthy": _row(run("healthy")),
        "exposed": _row(run("exposed", faults=_fail_slow())),
        "tolerant": _row(
            run("tolerant", faults=_fail_slow(), tolerance=TOLERANCE)
        ),
    }
    healthy = report["runs"]["healthy"]
    exposed = report["runs"]["exposed"]
    tolerant = report["runs"]["tolerant"]
    gauges = tolerant["tolerance"]
    extra_attempts = tolerant["submitted"] - gauges["logical_submitted"]
    report["gains"] = {
        "exposed_p99_over_healthy": (
            exposed["p99_ms"] / max(healthy["p99_ms"], 1e-9)
        ),
        "tolerant_p99_over_healthy": (
            tolerant["p99_ms"] / max(healthy["p99_ms"], 1e-9)
        ),
        "extra_offered_work_frac": (
            extra_attempts / max(gauges["logical_submitted"], 1.0)
        ),
    }
    return report


def check_contract(report: Dict[str, object]) -> None:
    runs = report["runs"]
    healthy, exposed, tolerant = (
        runs["healthy"],
        runs["exposed"],
        runs["tolerant"],
    )
    gains = report["gains"]
    assert report["n_hosts"] >= 4, "the fleet claim is about >=4 hosts"
    assert report["slow_factor"] >= 10.0, "fail-slow must be >=10x"
    # The fault is real: exposed tail blows the 2x budget...
    assert gains["exposed_p99_over_healthy"] >= 2.0, (
        f"fail-slow host failed to damage the exposed tail "
        f"({exposed['p99_ms']:.2f} < 2x {healthy['p99_ms']:.2f} ms)"
    )
    # ...and tolerance holds it back inside.
    assert gains["tolerant_p99_over_healthy"] < 2.0, (
        f"hedging + breaker failed to hold fleet p99 within 2x of healthy "
        f"({tolerant['p99_ms']:.2f} vs {healthy['p99_ms']:.2f} ms)"
    )
    # Cheap: <10% extra host-level attempts for the whole recovery.
    assert gains["extra_offered_work_frac"] < 0.10, (
        f"tolerance overhead too high: "
        f"{gains['extra_offered_work_frac']:.1%} extra offered work"
    )
    gauges = tolerant["tolerance"]
    assert gauges["logical_submitted"] == report["n_requests"]
    assert gauges["logical_settled"] == gauges["logical_submitted"]
    assert gauges["logical_completed"] == report["n_requests"], (
        "tolerant fleet lost logical requests"
    )
    assert gauges["logical_failed"] == 0
    assert gauges["hedges_dispatched"] > 0, "the hedge path never fired"
    assert (
        gauges["hedges_won"] + gauges["hedges_lost"]
        == gauges["hedges_dispatched"]
    )
    assert gauges["breaker_ejections"] >= 1, "the breaker never ejected"
    for name, row in runs.items():
        assert row["submitted"] == (
            row["completed"] + row["rejected"] + row["dropped"]
        ), (name, row)


def test_fault_tolerance(benchmark):
    report = run_once(benchmark, run_all, True)
    benchmark.extra_info["experiment"] = "fault_tolerance"
    benchmark.extra_info["gains"] = report["gains"]
    check_contract(report)


def main(argv: List[str]) -> None:
    smoke = "--smoke" in argv
    report = run_all(smoke)
    OUTPUT.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUTPUT}")
    for name, row in report["runs"].items():
        extra = ""
        if "tolerance" in row:
            g = row["tolerance"]
            extra = (
                f"  hedges {g['hedges_dispatched']:.0f} "
                f"(won {g['hedges_won']:.0f})  retries {g['retries']:.0f}  "
                f"ejections {g['breaker_ejections']:.0f}"
            )
        print(
            f"{name:>9}: p50 {row['p50_ms']:6.2f}ms  p95 {row['p95_ms']:6.2f}ms  "
            f"p99 {row['p99_ms']:6.2f}ms  completed {row['completed']:.0f}"
            f"{extra}"
        )
    check_contract(report)
    gains = report["gains"]
    print(
        f"fault contract holds: exposed p99 "
        f"{gains['exposed_p99_over_healthy']:.2f}x healthy, tolerant "
        f"{gains['tolerant_p99_over_healthy']:.2f}x for "
        f"{gains['extra_offered_work_frac']:.1%} extra offered work"
    )


if __name__ == "__main__":
    main(sys.argv[1:])
