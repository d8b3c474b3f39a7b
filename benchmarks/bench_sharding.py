"""Cross-SSD sharding benchmark: replicate vs table-shard vs row-shard.

Measures *simulated* serving throughput of one embedding-dominated model
under the three :mod:`repro.serving.sharding` policies as SSDs are added,
and records the scatter-gather overheads the policies trade against:

* ``replicate`` — whole-model copies, coalesced batches round-robin
  across devices (the pre-sharding baseline; N-fold storage cost).
* ``table`` — whole tables balanced across devices; every batch fans out
  to all of them concurrently.
* ``row`` — large tables row-partitioned (modulo hash) so even a single
  table's lookups spread across every device's flash channels.

Per (policy, device count) cell: offered-load throughput, p95 latency
and the per-shard lookup balance from
:meth:`~repro.serving.stats.ServingStats.shard_summary`.  Before timing,
one fixed batch is pushed through every policy and the pooled embeddings
are asserted equal (float32 accumulation-order tolerance) — sharding
must never change results.

Contract (asserted in full mode): with 4 devices, the best sharding
policy's throughput is >= 2x the single-device throughput, and >= the
replicate baseline at the same device count.

Run standalone (writes ``BENCH_sharding.json``)::

    PYTHONPATH=src python benchmarks/bench_sharding.py           # full
    PYTHONPATH=src python benchmarks/bench_sharding.py --smoke   # CI
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

from repro.core.engine import NdpEngineConfig
from repro.experiments.common import assert_policy_equivalence
from repro.host.system import System
from repro.models.dlrm import DlrmConfig, DlrmModel
from repro.models.runner import BackendKind, required_capacity_pages
from repro.serving import (
    InferenceServer,
    ReplicatePolicy,
    RowShardPolicy,
    ServingConfig,
    TableShardPolicy,
)
from repro.ssd.presets import cosmos_plus_config
from repro.workload import OpenLoopGenerator, run_workload

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_sharding.json"

SCALING_FLOOR = 2.0  # best policy at 4 devices vs 1 device

POLICIES = {
    "replicate": lambda rows: ReplicatePolicy(),
    "table": lambda rows: TableShardPolicy(),
    "row": lambda rows: RowShardPolicy(threshold_rows=rows // 2),
}


def build_model(smoke: bool) -> DlrmModel:
    rows = 1 << (14 if smoke else 16)
    return DlrmModel(
        DlrmConfig(
            name="rm-shard",
            dense_in=16,
            bottom_mlp=(32, 16),
            top_mlp=(32, 16),
            num_tables=8,
            table_rows=rows,
            dim=32,
            lookups=8 if smoke else 10,
        ),
        seed=5,
    )


def build_server(model: DlrmModel, policy_name: str, n_devices: int) -> InferenceServer:
    system = System(
        cosmos_plus_config(
            min_capacity_pages=required_capacity_pages(model),
            ndp=NdpEngineConfig(queue_when_full=True),
        )
    )
    server = InferenceServer(
        system,
        # dense_stage off: the policies only differ in how embedding work
        # maps to devices; the dense tower would add identical time.
        ServingConfig(max_batch_requests=4, dense_stage=False),
    )
    server.register_model(
        model,
        BackendKind.NDP,
        num_workers=n_devices,
        sharding=POLICIES[policy_name](model.features[0].spec.rows),
    )
    return server


def run_cell(smoke: bool, policy_name: str, n_devices: int) -> Dict[str, float]:
    model = build_model(smoke)
    server = build_server(model, policy_name, n_devices)
    n_requests = 12 if smoke else 48
    stats = run_workload(
        server,
        OpenLoopGenerator(model.name, rate=4000.0, n_requests=n_requests, batch_size=4),
        seed=3,
    )
    per_shard = stats.shard_summary().get(model.name, {})
    lookups = [row["lookups"] for row in per_shard.values()]
    return {
        "throughput_rps": stats.throughput_rps(),
        "p95_ms": stats.summary()["p95_ms"],
        "completed": float(stats.completed),
        "devices_used": float(len(per_shard)),
        "shard_lookup_imbalance": (
            max(lookups) / max(min(lookups), 1.0) if lookups else 0.0
        ),
    }


def run_all(smoke: bool) -> Dict[str, object]:
    device_counts = (1, 2) if smoke else (1, 2, 4)
    # Sharding must never change results: same contract (and helper) as
    # the multi_ssd experiment.
    assert_policy_equivalence(
        lambda: build_model(smoke),
        lambda model, name: build_server(model, name, max(device_counts)),
        list(POLICIES),
    )
    report: Dict[str, object] = {
        "mode": "smoke" if smoke else "full",
        "device_counts": list(device_counts),
    }
    for policy_name in POLICIES:
        report[policy_name] = {
            str(n): run_cell(smoke, policy_name, n) for n in device_counts
        }
    best = max(
        report[p][str(device_counts[-1])]["throughput_rps"]
        for p in ("table", "row")
    )
    base = report["replicate"]["1"]["throughput_rps"]
    report["scaling"] = {
        "devices": device_counts[-1],
        "best_sharded_rps": best,
        "single_device_rps": base,
        "speedup": best / base if base else 0.0,
    }
    return report


def check_contract(report: Dict[str, object]) -> None:
    scaling = report["scaling"]
    assert scaling["speedup"] >= SCALING_FLOOR, (
        f"sharded throughput scaled only {scaling['speedup']:.2f}x over "
        f"1 device (< {SCALING_FLOOR}x)"
    )
    last = str(report["device_counts"][-1])
    replicate = report["replicate"][last]["throughput_rps"]
    assert scaling["best_sharded_rps"] >= replicate, (
        "sharding should beat whole-model replication at equal devices"
    )


def main(argv: List[str]) -> None:
    smoke = "--smoke" in argv
    report = run_all(smoke)
    OUTPUT.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUTPUT}")
    for policy_name in POLICIES:
        cells = report[policy_name]
        line = "  ".join(
            f"{n}ssd={cells[str(n)]['throughput_rps']:7.1f}rps"
            for n in report["device_counts"]
        )
        print(f"{policy_name:>9}: {line}")
    scaling = report["scaling"]
    print(
        f"best sharded @ {scaling['devices']} devices: "
        f"{scaling['best_sharded_rps']:.1f} rps "
        f"({scaling['speedup']:.2f}x over 1 device)"
    )
    if smoke:
        # CI smoke: tiny sizes; the equivalence asserts above already ran.
        print("smoke mode: skipped scaling-floor assertions")
        return
    check_contract(report)
    print(f"sharding contract holds: >= {SCALING_FLOOR}x at 4 devices, beats replication")


if __name__ == "__main__":
    main(sys.argv[1:])
