#!/usr/bin/env python3
"""Serving demo: concurrent multi-model inference over one or more SSDs.

Registers two models on one :class:`~repro.serving.InferenceServer` —
an embedding-dominated DLRM on the RecSSD NDP path (spread over two
SSDs) and an MLP-dominated Wide&Deep in host DRAM — then drives mixed
open-loop Poisson traffic at them and prints per-model throughput and
tail latency, plus the device-side evidence that SLS requests from
different users genuinely overlapped inside the FTL.

``--sharding`` picks how the DLRM uses its two SSDs (see
``docs/SERVING.md``):

* ``replicate`` (default) — whole-model copies, coalesced batches
  round-robin across the devices.
* ``table`` — each embedding table lives wholly on one device; every
  batch fans out to both devices concurrently.
* ``row`` — the tables are row-partitioned (modulo hash) so even one
  table's lookups spread across both devices' flash channels; partial
  sums merge host-side.

Run with::

    PYTHONPATH=src python examples/serving_demo.py
    PYTHONPATH=src python examples/serving_demo.py --sharding row
"""

import argparse

from repro.core.engine import NdpEngineConfig
from repro.host.system import build_system
from repro.models.dlrm import DlrmConfig, DlrmModel
from repro.models.runner import BackendKind, required_capacity_pages
from repro.models.zoo import build_model
from repro.serving import (
    InferenceServer,
    RowShardPolicy,
    ServingConfig,
    TableShardPolicy,
)
from repro.workload import OpenLoopGenerator, run_workload

# None selects the legacy replicate path (ReplicatePolicy is equivalent).
POLICIES = {
    "replicate": lambda: None,
    "table": lambda: TableShardPolicy(),
    "row": lambda: RowShardPolicy(threshold_rows=8192),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sharding",
        choices=sorted(POLICIES),
        default="replicate",
        help="how the DLRM spreads over its two SSDs",
    )
    args = parser.parse_args()

    # An embedding-dominated DLRM (the workload RecSSD accelerates) and
    # an MLP-dominated Wide&Deep that stays in host DRAM.
    rm = DlrmModel(
        DlrmConfig(
            name="rm-small", dense_in=16, bottom_mlp=(32, 16), top_mlp=(32, 16),
            num_tables=4, table_rows=16_384, dim=32, lookups=20,
        ),
        seed=3,
    )
    wnd = build_model("wnd", seed=4, table_rows=8_192)

    # queue_when_full: the device holds overflowing NDP config writes
    # (queue-depth backpressure) instead of failing them — required for
    # serving-level concurrency.
    system = build_system(
        min_capacity_pages=required_capacity_pages(rm),
        ndp=NdpEngineConfig(queue_when_full=True),
    )
    server = InferenceServer(
        system,
        ServingConfig(max_batch_requests=4, max_inflight_batches_per_worker=2),
    )
    server.register_model(
        rm,
        BackendKind.NDP,
        num_workers=2,                        # two attached SSDs
        sharding=POLICIES[args.sharding](),
    )
    server.register_model(wnd, BackendKind.DRAM)
    print(
        f"registered {list(server.models)} on {len(system.devices)} SSD(s), "
        f"rm-small sharding={args.sharding}"
    )

    # Mixed open-loop Poisson traffic; deterministic for a given seed.
    stats = run_workload(
        server,
        [
            OpenLoopGenerator(name, rate=800.0, n_requests=50, batch_size=2)  # requests/s
            for name in ("rm-small", "wnd")
        ],
        seed=42,
    )

    s = stats.summary()
    print(
        f"\nserved {s['completed']:.0f} requests "
        f"({s['rejected']:.0f} rejected) at {s['throughput_rps']:.0f} req/s"
    )
    print(
        f"latency: mean={s['mean_ms']:.2f}ms p50={s['p50_ms']:.2f}ms "
        f"p95={s['p95_ms']:.2f}ms p99={s['p99_ms']:.2f}ms"
    )
    print(
        f"coalescing: {stats.batches_dispatched} batched SLS dispatches, "
        f"{s['mean_batch_requests']:.2f} requests/batch, "
        f"peak {s['max_inflight']:.0f} requests in flight"
    )
    for name, count in sorted(stats.completed_by_model.items()):
        print(f"  {name:9} completed {count}")

    # Per-device embedding work: which SSD served how many lookups.  In
    # replicate mode whole batches alternate between the devices; in the
    # sharded modes every batch touches both.
    print("\nper-shard embedding work (ServingStats.shard_summary):")
    for model_name, per_shard in sorted(stats.shard_summary().items()):
        for shard, row in per_shard.items():
            print(
                f"  {model_name:9} shard{shard}: {row['batches']:.0f} batches, "
                f"{row['sub_ops']:.0f} SLS ops, {row['lookups']:.0f} lookups, "
                f"busy {row['busy_s'] * 1e3:.2f}ms"
            )

    print("\nper-device NDP engine concurrency:")
    for i, device in enumerate(system.devices):
        engine = device.ndp
        print(
            f"  ssd{i}: {engine.requests_completed} SLS requests, "
            f"peak {engine.max_concurrent_requests} concurrent, "
            f"{engine.overlap_seconds * 1e3:.2f}ms with >=2 in flight, "
            f"{engine.requests_queued} held by device backpressure"
        )


if __name__ == "__main__":
    main()
