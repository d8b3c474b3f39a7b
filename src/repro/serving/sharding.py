"""Cross-SSD placement policies: which table piece lives on which device.

``register_model(num_workers=N, sharding=policy)`` spreads one model
over N attached SSDs.  A policy only *decides*: it returns
:class:`ShardPlan` data — one plan per dispatch target
(:class:`~repro.serving.scheduler.ModelWorker`) — and
``InferenceServer.register_model`` walks every plan the same way, into
the same :class:`~repro.embedding.stage.EmbeddingStage`, which scatters,
launches and gathers (RecNMP fans one gather-reduce out to N ranks and
merges the partial sums through the same path whatever N is):

* :class:`ReplicatePolicy` (the default) — N plans, plan *i* placing
  every table whole on shard *i*: whole-model copies, coalesced batches
  round-robin across them, throughput scales because batches overlap.
* :class:`TableShardPolicy` — one N-shard plan; each table lives wholly
  on exactly one device, assigned greedily so per-device lookup traffic
  balances.  Every table's batched SLS op is unchanged — it just runs
  on its home device — so pooled results equal replicate mode
  exactly on the order-deterministic DRAM backend and up to device-side
  float32 accumulation order on ssd/ndp (page-arrival order shifts when
  tables spread out; the same caveat the repo's bit-for-bit backend
  checks carry).
* :class:`RowShardPolicy` — one N-shard plan; tables at or above
  ``threshold_rows`` are partitioned row-wise across all devices by a
  modulo hash; smaller tables are whole-assigned like
  :class:`TableShardPolicy`.  Each device returns partial sums, merged
  host-side, so per-bag float accumulation order changes — results are
  equal to replicate mode up to float32 summation order.

The shard-local id remapping invariant a row split relies on lives in
:meth:`~repro.embedding.table.EmbeddingTable.row_shard`; the split of
a batch's bags by a mapping is
:func:`~repro.embedding.stage.scatter_bags`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..params import PosCount, checked

__all__ = [
    "ModuloRowMapping",
    "TablePlacement",
    "ShardPlan",
    "ShardingPolicy",
    "ReplicatePolicy",
    "TableShardPolicy",
    "RowShardPolicy",
]


# ----------------------------------------------------------------------
# Row mapping: global id <-> (shard, local id)
# ----------------------------------------------------------------------
class ModuloRowMapping:
    """Hash partitioning: global id ``g`` lives on shard ``g % N`` as
    local id ``g // N`` (both closed-form; nothing materialized).

    The id-remap invariant a row split relies on: every global id
    belongs to exactly one shard, and ``global_ids(s)`` is strictly
    ascending with ``local_ids`` its inverse, so local order preserves
    global order within a shard (order-sensitive backends accumulate
    identically to the unsharded table restricted to that shard's rows).
    """

    @checked
    def __init__(self, rows: PosCount, num_shards: PosCount):
        if rows < num_shards:
            raise ValueError("need rows >= num_shards >= 1")
        self.rows = rows
        self.num_shards = num_shards

    def shard_of(self, ids: np.ndarray) -> np.ndarray:
        return np.asarray(ids, dtype=np.int64) % self.num_shards

    def local_ids(self, ids: np.ndarray) -> np.ndarray:
        return np.asarray(ids, dtype=np.int64) // self.num_shards

    def global_ids(self, shard: int) -> np.ndarray:
        return np.arange(shard, self.rows, self.num_shards, dtype=np.int64)


# ----------------------------------------------------------------------
# Shard plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TablePlacement:
    """Where one table's rows live.

    ``mapping is None`` means the whole table lives on ``shards[0]``;
    otherwise the table is row-partitioned across ``shards`` by
    ``mapping``.
    """

    table: str
    shards: Tuple[int, ...]
    mapping: Optional[ModuloRowMapping] = None

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValueError("a placement needs at least one shard")
        if self.mapping is None and len(self.shards) != 1:
            raise ValueError("whole-table placement must name exactly one shard")
        if self.mapping is not None and len(self.shards) != self.mapping.num_shards:
            raise ValueError("mapping shard count must match placement shards")


@dataclass(frozen=True)
class ShardPlan:
    """One dispatch target's placement: every table of the model, each
    whole on one shard or row-split over several."""

    num_shards: int
    mode: str  # "replicate" | "table" | "row"
    placements: Dict[str, TablePlacement]

    def tables_on(self, shard: int) -> List[str]:
        """Table names with a piece (whole or row shard) on ``shard``."""
        return [
            name for name, p in self.placements.items() if shard in p.shards
        ]

    def mappings(self) -> Dict[str, ModuloRowMapping]:
        """The row-split tables' mappings, by table name."""
        return {
            name: p.mapping
            for name, p in self.placements.items()
            if p.mapping is not None
        }

    def validate(self, feature_names: Sequence[str]) -> None:
        if set(self.placements) != set(feature_names):
            raise ValueError(
                f"plan covers {sorted(self.placements)} but model has "
                f"{sorted(feature_names)}"
            )
        for placement in self.placements.values():
            if max(placement.shards) >= self.num_shards:
                raise ValueError(
                    f"placement for {placement.table!r} names shard "
                    f"{max(placement.shards)} >= num_shards {self.num_shards}"
                )


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
class ShardingPolicy(ABC):
    """Strategy deciding how a model's tables spread across N devices."""

    name = "base"

    @abstractmethod
    def plans(self, model, num_shards: int) -> List[ShardPlan]:
        """Place ``model``'s tables on ``num_shards`` devices: one plan
        per dispatch target, each covering every table."""


class ReplicatePolicy(ShardingPolicy):
    """Whole-model replication: one one-shard plan per device.

    Plan *i* places every table whole on shard *i*, so the model gets
    one :class:`~repro.serving.scheduler.ModelWorker` per device, full
    tables each, batches round-robin — what ``register_model`` does
    without a policy.
    """

    name = "replicate"

    def plans(self, model, num_shards: int) -> List[ShardPlan]:
        return [
            ShardPlan(
                num_shards,
                "replicate",
                {f.name: TablePlacement(f.name, (shard,)) for f in model.features},
            )
            for shard in range(num_shards)
        ]


def _assign_whole(features, num_shards: int) -> Dict[str, int]:
    """Greedy LPT bin packing: heaviest table to the least-loaded shard,
    a table weighing its expected lookups per sample times its row bytes
    (bandwidth demand)."""
    loads = [0.0] * num_shards
    home: Dict[str, int] = {}
    weight = {f.name: float(f.lookups * f.spec.row_bytes) for f in features}
    for feature in sorted(features, key=lambda f: (-weight[f.name], f.name)):
        shard = min(range(num_shards), key=lambda s: (loads[s], s))
        loads[shard] += weight[feature.name]
        home[feature.name] = shard
    return home


class TableShardPolicy(ShardingPolicy):
    """Whole tables assigned to devices, balancing expected lookup
    bandwidth (throughput scaling).  Per-table SLS ops are unchanged, so
    pooled outputs equal replicate mode (exactly on DRAM; up to
    device-side accumulation order on ssd/ndp).
    """

    name = "table"

    def plan(self, model, num_shards: int) -> ShardPlan:
        placements = {
            name: TablePlacement(name, (shard,), None)
            for name, shard in _assign_whole(model.features, num_shards).items()
        }
        return ShardPlan(num_shards, "table", placements)

    def plans(self, model, num_shards: int) -> List[ShardPlan]:
        return [self.plan(model, num_shards)]


class RowShardPolicy(ShardingPolicy):
    """Row-partition large tables across all devices; whole-assign the rest.

    Tables with ``rows >= threshold_rows`` are split by
    :class:`ModuloRowMapping`; smaller tables are whole-assigned like
    :class:`TableShardPolicy`.  Pooled outputs equal replicate mode up
    to float32 partial-sum order.
    """

    name = "row"

    @checked
    def __init__(self, threshold_rows: PosCount = 1 << 15):
        self.threshold_rows = threshold_rows

    def plan(self, model, num_shards: int) -> ShardPlan:
        split = [
            f
            for f in model.features
            if f.spec.rows >= max(self.threshold_rows, num_shards)
        ]
        whole = [f for f in model.features if f not in split]
        placements: Dict[str, TablePlacement] = {
            f.name: TablePlacement(
                f.name,
                tuple(range(num_shards)),
                ModuloRowMapping(f.spec.rows, num_shards),
            )
            for f in split
        }
        for name, shard in _assign_whole(whole, num_shards).items():
            placements[name] = TablePlacement(name, (shard,), None)
        return ShardPlan(num_shards, "row", placements)

    def plans(self, model, num_shards: int) -> List[ShardPlan]:
        return [self.plan(model, num_shards)]
