"""Extension: multi-SSD scale-out (the paper's stated future direction).

The prototype "limits us to single-model single-SSD systems" (Section 5).
This extension measures two things as simulated RecSSDs are added to one
host:

1. **Embedding-stage latency** with a model's tables spread across N
   devices (the original extension): each device contributes its own FTL
   CPU and flash channels, so NDP throughput scales with device count
   until host-side costs dominate.
2. **Serving-layer policy comparison** (ISSUE 3): the same table set is
   served through :class:`~repro.serving.InferenceServer` under the
   three :mod:`repro.serving.sharding` policies — whole-model
   replication, whole-table sharding and row sharding — and the
   throughput of each is recorded per device count.  Replication scales
   by round-robining whole batches across copies; the sharding policies
   scale by splitting every batch across devices (scatter-gather), which
   also removes the N-fold storage overhead of replication.

Pooled embedding results are asserted equivalent across device counts
and across policies (up to float32 accumulation order).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..core.engine import NdpEngineConfig
from ..embedding.backends import NdpSlsBackend, SsdSlsBackend
from ..embedding.spec import Layout, TableSpec
from ..embedding.stage import EmbeddingStage
from ..embedding.table import EmbeddingTable
from ..host.system import System
from ..models.dlrm import DlrmConfig, DlrmModel
from ..models.runner import required_capacity_pages
from ..serving import ReplicatePolicy, RowShardPolicy, TableShardPolicy
from ..ssd.presets import cosmos_plus_config
from ..workload import scenario
from .common import ExperimentResult, assert_policy_equivalence, speedup

__all__ = ["run"]

NUM_TABLES = 8
TABLE_ROWS = 1 << 16
DIM = 32
LOOKUPS = 40
BATCH = 32

# Serving comparison shape: enough concurrent small requests that
# coalescing and cross-device dispatch both engage.
SERVE_REQUESTS = 24
SERVE_BATCH = 4
SERVE_RATE = 4000.0

POLICIES = {
    "replicate": lambda: ReplicatePolicy(),
    "table": lambda: TableShardPolicy(),
    "row": lambda: RowShardPolicy(threshold_rows=TABLE_ROWS // 2),
}


def _build_sharded(n_devices: int, kind: str) -> tuple[System, EmbeddingStage]:
    per_device_pages = (NUM_TABLES // n_devices + 1) * TABLE_ROWS + (1 << 16)
    system = System(cosmos_plus_config(min_capacity_pages=per_device_pages))
    for _ in range(n_devices - 1):
        system.add_device(cosmos_plus_config(min_capacity_pages=per_device_pages))
    backends = {shard: {} for shard in range(n_devices)}
    for i in range(NUM_TABLES):
        table = EmbeddingTable(
            TableSpec(f"shard{i}", rows=TABLE_ROWS, dim=DIM, layout=Layout.ONE_PER_PAGE),
            seed=100 + i,
        )
        table.attach(system.devices[i % n_devices])
        backend_cls = NdpSlsBackend if kind == "ndp" else SsdSlsBackend
        backends[i % n_devices][table.spec.name] = backend_cls(system, table)
    return system, EmbeddingStage(backends)


def _serve_model() -> DlrmModel:
    return DlrmModel(
        DlrmConfig(
            name="rm-shard",
            dense_in=16,
            bottom_mlp=(32, 16),
            top_mlp=(32, 16),
            num_tables=NUM_TABLES,
            table_rows=TABLE_ROWS,
            dim=DIM,
            lookups=LOOKUPS // 4,
        ),
        seed=5,
    )


def _serve_setup(
    model: DlrmModel, policy_name: str, n_devices: int, seed: int
) -> scenario.Built:
    """One NDP server, ``model`` registered under the named policy on
    ``n_devices`` workers, with the comparison's open-loop traffic."""
    spec = scenario.ScenarioSpec(
        name=f"multi-ssd-{policy_name}",
        tenants=(
            scenario.TenantSpec(
                model.name,
                rate=SERVE_RATE,
                n_requests=SERVE_REQUESTS,
                batch_size=SERVE_BATCH,
            ),
        ),
        backend="ndp",
        max_batch_requests=4,
        # dense_stage off: this comparison isolates how the *embedding*
        # stage scales with devices (the dense tower is device-agnostic).
        dense_stage=False,
        seed=seed,
    )
    system = System(
        cosmos_plus_config(
            min_capacity_pages=required_capacity_pages(model),
            ndp=NdpEngineConfig(queue_when_full=True),
        )
    )
    return scenario.setup(
        spec,
        [model],
        system=system,
        num_workers=n_devices,
        sharding=POLICIES[policy_name](),
    )


def _serve_policy(n_devices: int, policy_name: str, seed: int) -> float:
    """Offered-load throughput (req/s) under one sharding policy."""
    built = _serve_setup(_serve_model(), policy_name, n_devices, seed)
    return scenario.run(built).stats.throughput_rps()


def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    device_counts = (1, 2, 4) if fast else (1, 2, 4, 8)
    rng = np.random.default_rng(seed)
    bags: Dict[str, List[np.ndarray]] = {
        f"shard{i}": [rng.integers(0, TABLE_ROWS, size=LOOKUPS) for _ in range(BATCH)]
        for i in range(NUM_TABLES)
    }
    reference = None
    rows = []
    assert_policy_equivalence(
        _serve_model,
        lambda model, name: _serve_setup(model, name, max(device_counts), seed).front,
        list(POLICIES),
        batch_size=SERVE_BATCH,
        seed=seed,
    )
    for n_devices in device_counts:
        results = {}
        for kind in ("ssd", "ndp"):
            system, stage = _build_sharded(n_devices, kind)
            results[kind] = stage.run_sync(bags)
        values = results["ndp"].values
        if reference is None:
            reference = values
        else:
            for name in reference:
                if not np.allclose(values[name], reference[name], rtol=1e-4, atol=1e-5):
                    raise AssertionError("multi-SSD sharding changed results")
        row = {
            "devices": n_devices,
            "base_ms": results["ssd"].latency * 1e3,
            "ndp_ms": results["ndp"].latency * 1e3,
            "ndp_speedup": speedup(
                results["ssd"].latency, results["ndp"].latency
            ),
        }
        for policy_name in POLICIES:
            row[f"serve_{policy_name}_rps"] = _serve_policy(
                n_devices, policy_name, seed=seed
            )
        rows.append(row)
    return ExperimentResult(
        "ext_multi_ssd",
        f"Embedding latency + serving policy throughput, {NUM_TABLES} tables over N RecSSDs",
        rows,
        notes=[
            "extension beyond the paper (its prototype is single-SSD)",
            "serve_*_rps: offered-load throughput under repro.serving.sharding "
            "policies (replicate vs whole-table vs row scatter-gather)",
        ],
    )
