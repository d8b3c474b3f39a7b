"""Serving-layer benchmark: offered load vs. throughput and tail latency.

Sweeps an open-loop Poisson arrival rate over the dram/ssd/ndp backends
(the paper's three configurations) through the concurrent serving layer
and reports throughput plus p50/p95/p99 request latency per load level —
the latency-bounded-throughput framing of the serving problem.  Also
checks the structural claim this layer exists for: under concurrent
load, the NDP engine holds >=2 SLS requests in flight at once.

A second sweep exercises the host resource model
(:mod:`repro.serving.hostpool`): the same overloaded NDP serving run
with 1/2/∞ dense-stage NN workers (dense service pinned to a realistic
per-sample time) and with a bounded host SLS worker pool.  The asserted
contract: **at >=2x overload, p99 with one dense worker is strictly
higher than with unbounded workers, and the bounded dense pool reports
non-trivial utilization** — bounding the host raises the tail, so
latency-vs-load comparisons that ignore host contention flatter DRAM.

Results (all rows + the checked claims) are recorded to
``BENCH_serving.json`` with the same asserted-contract shape as the
hotpath/sharding/qos benches.

Run standalone (writes ``BENCH_serving.json``)::

    PYTHONPATH=src python benchmarks/bench_serving_throughput.py           # full
    PYTHONPATH=src python benchmarks/bench_serving_throughput.py --smoke   # CI

or through pytest-benchmark with the rest of the bench suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving_throughput.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.engine import NdpEngineConfig
from repro.host.system import build_system
from repro.models.dlrm import DlrmConfig, DlrmModel
from repro.models.runner import BackendKind, required_capacity_pages
from repro.serving import InferenceServer, ServingConfig
from repro.workload import OpenLoopGenerator, run_workload

try:
    from conftest import run_once  # pytest-benchmark path (rootdir import)
except ImportError:  # standalone `python benchmarks/...` run
    run_once = None

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

BACKENDS = (BackendKind.DRAM, BackendKind.SSD, BackendKind.NDP)
OFFERED_RPS = (400.0, 1600.0, 6400.0)   # light, near-saturation, overload
N_REQUESTS = 60
BATCH_SIZE = 2
SEED = 11

# Host-contention sweep: dense pool sizes (0 = unbounded) at the
# overload rate, with an explicit per-sample dense service time so the
# toy model's dense stage is a realistic fraction of request service.
DENSE_WORKER_SWEEP = (1, 2, 0)
DENSE_SERVICE_S = 5e-4          # 0.5 ms per sample
SLS_WORKER_SWEEP = (1, None)


def serving_model(seed: int = 1) -> DlrmModel:
    """A small embedding-dominated DLRM so the sweep stays fast."""
    return DlrmModel(
        DlrmConfig(
            name="serve-rm",
            dense_in=16,
            bottom_mlp=(32, 16),
            top_mlp=(32, 16),
            num_tables=2,
            table_rows=8192,
            dim=16,
            lookups=16,
        ),
        seed=seed,
    )


def build_server(
    kind: BackendKind, serving_config: Optional[ServingConfig] = None
) -> InferenceServer:
    model = serving_model()
    system = build_system(
        min_capacity_pages=required_capacity_pages(model),
        ndp=NdpEngineConfig(queue_when_full=True),
    )
    server = InferenceServer(
        system,
        serving_config
        or ServingConfig(max_batch_requests=4, max_inflight_batches_per_worker=2),
    )
    server.register_model(model, kind)
    return server


def run_sweep(
    backends=BACKENDS,
    offered_rps=OFFERED_RPS,
    n_requests: int = N_REQUESTS,
    batch_size: int = BATCH_SIZE,
    seed: int = SEED,
) -> List[Dict[str, float]]:
    """One row per (backend, offered load): throughput + latency percentiles."""
    rows: List[Dict[str, float]] = []
    for kind in backends:
        for rps in offered_rps:
            server = build_server(kind)
            stats = run_workload(
                server,
                OpenLoopGenerator(
                    "serve-rm", rate=rps, n_requests=n_requests, batch_size=batch_size
                ),
                seed=seed,
            )
            summary = stats.summary()
            engine = server.system.device.ndp
            rows.append(
                {
                    "backend": kind.value,
                    "offered_rps": rps,
                    "throughput_rps": summary["throughput_rps"],
                    "p50_ms": summary["p50_ms"],
                    "p95_ms": summary["p95_ms"],
                    "p99_ms": summary["p99_ms"],
                    "completed": summary["completed"],
                    "rejected": summary["rejected"],
                    "mean_batch_requests": summary["mean_batch_requests"],
                    "ndp_max_concurrent": float(engine.max_concurrent_requests),
                    "ndp_overlap_ms": engine.overlap_seconds * 1e3,
                }
            )
    return rows


def run_host_contention(
    n_requests: int = N_REQUESTS,
    batch_size: int = BATCH_SIZE,
    seed: int = SEED,
) -> List[Dict[str, float]]:
    """Overloaded NDP serving with bounded host pools; one row per run."""
    overload_rps = OFFERED_RPS[-1]
    rows: List[Dict[str, float]] = []

    def one(resource: str, config: ServingConfig, workers) -> None:
        server = build_server(BackendKind.NDP, config)
        stats = run_workload(
            server,
            OpenLoopGenerator(
                "serve-rm", rate=overload_rps, n_requests=n_requests, batch_size=batch_size
            ),
            seed=seed,
        )
        summary = stats.summary()
        host = server.hostpool_summary()[resource]
        rows.append(
            {
                "resource": resource,
                # 0/None mean unbounded; report as inf for readability.
                "workers": float("inf") if not workers else float(workers),
                "offered_rps": overload_rps,
                "throughput_rps": summary["throughput_rps"],
                "p95_ms": summary["p95_ms"],
                "p99_ms": summary["p99_ms"],
                "mean_wait_ms": host["mean_wait_ms"],
                "utilization": host["utilization"],
            }
        )

    for workers in DENSE_WORKER_SWEEP:
        one(
            "dense",
            ServingConfig(
                max_batch_requests=4,
                dense_workers=workers,
                dense_service_s_by_model={"serve-rm": DENSE_SERVICE_S},
            ),
            workers,
        )
    for workers in SLS_WORKER_SWEEP:
        one(
            "host_sls",
            ServingConfig(
                max_batch_requests=4,
                host_sls_workers=workers,
                dense_workers=0,   # isolate the SLS pool
            ),
            workers,
        )
    return rows


def check_host_claims(rows: List[Dict[str, float]]) -> None:
    """The host resource model's asserted contract at >=2x overload."""
    dense = {r["workers"]: r for r in rows if r["resource"] == "dense"}
    sls = {r["workers"]: r for r in rows if r["resource"] == "host_sls"}
    for row in rows:
        assert "utilization" in row and "mean_wait_ms" in row, row
        assert row["p95_ms"] <= row["p99_ms"], row
    # Bounded host pools strictly raise the tail at saturation...
    assert dense[1.0]["p99_ms"] > dense[float("inf")]["p99_ms"], dense
    assert sls[1.0]["p99_ms"] > sls[float("inf")]["p99_ms"], sls
    # ...and more workers never hurt.
    assert dense[2.0]["p99_ms"] <= dense[1.0]["p99_ms"], dense
    # The bounded pools are genuinely busy (utilization is reported and
    # non-trivial); unbounded pools report 0 by definition.
    assert dense[1.0]["utilization"] > 0.5, dense
    assert sls[1.0]["utilization"] > 0.5, sls
    assert dense[float("inf")]["utilization"] == 0.0, dense


def check_claims(rows: List[Dict[str, float]], n_requests: int = N_REQUESTS) -> None:
    """The qualitative shape the serving story rests on."""
    by_backend: Dict[str, List[Dict[str, float]]] = {}
    for row in rows:
        by_backend.setdefault(row["backend"], []).append(row)
    for kind, group in by_backend.items():
        group.sort(key=lambda r: r["offered_rps"])
        for row in group:
            assert row["completed"] + row["rejected"] == n_requests, row
            assert row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"], row
        # Tail latency does not improve as offered load grows.
        assert group[-1]["p99_ms"] >= group[0]["p99_ms"] * 0.9, group
    # The acceptance bar: the NDP backend held >=2 SLS requests in flight.
    ndp_peak = max(r["ndp_max_concurrent"] for r in by_backend["ndp"])
    assert ndp_peak >= 2, f"NDP never overlapped SLS requests (peak={ndp_peak})"
    assert max(r["ndp_overlap_ms"] for r in by_backend["ndp"]) > 0
    # DRAM serves lighter tails than the COTS SSD path at every load.
    for d_row, s_row in zip(by_backend["dram"], by_backend["ssd"]):
        assert d_row["p99_ms"] <= s_row["p99_ms"], (d_row, s_row)


def test_serving_throughput_tail_latency(benchmark):
    rows = run_once(benchmark, run_sweep)
    benchmark.extra_info["experiment"] = "serving_throughput"
    benchmark.extra_info["rows"] = [
        {
            k: row[k]
            for k in (
                "backend",
                "offered_rps",
                "throughput_rps",
                "p50_ms",
                "p95_ms",
                "p99_ms",
                "ndp_max_concurrent",
            )
        }
        for row in rows
    ]
    check_claims(rows)


def test_host_contention_tail_latency(benchmark):
    rows = run_once(benchmark, run_host_contention)
    benchmark.extra_info["experiment"] = "host_contention"
    benchmark.extra_info["rows"] = rows
    check_host_claims(rows)


def main(argv: List[str]) -> None:
    smoke = "--smoke" in argv
    n_requests = 24 if smoke else N_REQUESTS
    rows = run_sweep(n_requests=n_requests)
    header = (
        f"{'backend':8} {'offered':>9} {'tput':>9} {'p50':>8} {'p95':>8} "
        f"{'p99':>8} {'rej':>4} {'ndp_conc':>8}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['backend']:8} {row['offered_rps']:>7.0f}/s "
            f"{row['throughput_rps']:>7.0f}/s {row['p50_ms']:>6.2f}ms "
            f"{row['p95_ms']:>6.2f}ms {row['p99_ms']:>6.2f}ms "
            f"{row['rejected']:>4.0f} {row['ndp_max_concurrent']:>8.0f}"
        )
    check_claims(rows, n_requests=n_requests)
    host_rows = run_host_contention(n_requests=n_requests)
    host_header = (
        f"{'resource':9} {'workers':>7} {'tput':>9} {'p95':>8} {'p99':>8} "
        f"{'wait':>8} {'util':>6}"
    )
    print("\nhost-contention sweep (NDP, overload):")
    print(host_header)
    print("-" * len(host_header))
    for row in host_rows:
        workers = "inf" if row["workers"] == float("inf") else f"{row['workers']:.0f}"
        print(
            f"{row['resource']:9} {workers:>7} "
            f"{row['throughput_rps']:>7.0f}/s {row['p95_ms']:>6.2f}ms "
            f"{row['p99_ms']:>6.2f}ms {row['mean_wait_ms']:>6.2f}ms "
            f"{row['utilization']:>6.2f}"
        )
    check_host_claims(host_rows)
    dense_rows = {
        r["workers"]: r for r in host_rows if r["resource"] == "dense"
    }
    report = {
        "mode": "smoke" if smoke else "full",
        "n_requests": n_requests,
        "batch_size": BATCH_SIZE,
        "seed": SEED,
        "rows": rows,
        # JSON-safe copy: unbounded pools reported as workers = null.
        "host_contention": [
            {
                **row,
                "workers": (
                    None if row["workers"] == float("inf") else row["workers"]
                ),
            }
            for row in host_rows
        ],
        "claims": {
            "ndp_max_concurrent": max(
                r["ndp_max_concurrent"] for r in rows if r["backend"] == "ndp"
            ),
            "ndp_overlap_ms": max(
                r["ndp_overlap_ms"] for r in rows if r["backend"] == "ndp"
            ),
            # Host resource model contract at >=2x overload.
            "dense_p99_bounded_over_unbounded": (
                dense_rows[1.0]["p99_ms"] / dense_rows[float("inf")]["p99_ms"]
            ),
            "dense_utilization_1w": dense_rows[1.0]["utilization"],
        },
    }
    OUTPUT.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {OUTPUT}")
    print("all serving-shape claims hold "
          "(NDP overlapped >=2 SLS requests in flight; bounded host "
          "pools raise p99 at overload)")


if __name__ == "__main__":
    main(sys.argv[1:])
