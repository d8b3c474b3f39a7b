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
  on exactly one device, assigned greedily so per-device load (bytes or
  traffic) balances.  Every table's batched SLS op is unchanged — it
  just runs on its home device — so pooled results equal replicate mode
  exactly on the order-deterministic DRAM backend and up to device-side
  float32 accumulation order on ssd/ndp (page-arrival order shifts when
  tables spread out; the same caveat the repo's bit-for-bit backend
  checks carry).
* :class:`RowShardPolicy` — one N-shard plan; tables at or above
  ``threshold_rows`` are partitioned row-wise across all devices (modulo
  hash by default, or frequency ranges when a traffic profile is
  supplied, after RecFlash's frequency-based data mapping); smaller
  tables are whole-assigned like :class:`TableShardPolicy`.  Each device
  returns partial sums, merged host-side, so per-bag float accumulation
  order changes — results are equal to replicate mode up to float32
  summation order.

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
    "RowMapping",
    "ModuloRowMapping",
    "LookupRowMapping",
    "TablePlacement",
    "ShardPlan",
    "ShardingPolicy",
    "ReplicatePolicy",
    "TableShardPolicy",
    "RowShardPolicy",
]


# ----------------------------------------------------------------------
# Row mappings: global id <-> (shard, local id)
# ----------------------------------------------------------------------
class RowMapping(ABC):
    """How one table's global row ids map onto shard-local ids.

    The contract every implementation upholds (the id-remap invariant):

    * every global id belongs to exactly one shard;
    * ``global_ids(s)`` is strictly ascending and ``local_ids`` is its
      inverse, so local order preserves global order within a shard
      (order-sensitive backends accumulate identically to the unsharded
      table restricted to that shard's rows).
    """

    rows: int
    num_shards: int

    @abstractmethod
    def shard_of(self, ids: np.ndarray) -> np.ndarray:
        """Owning shard index for each global id (vectorized)."""

    @abstractmethod
    def local_ids(self, ids: np.ndarray) -> np.ndarray:
        """Shard-local id for each global id (vectorized)."""

    @abstractmethod
    def global_ids(self, shard: int) -> np.ndarray:
        """Ascending global ids owned by ``shard``."""

    def shard_rows(self, shard: int) -> int:
        return int(self.global_ids(shard).size)


class ModuloRowMapping(RowMapping):
    """Hash partitioning: global id ``g`` lives on shard ``g % N`` as
    local id ``g // N`` (both closed-form; nothing materialized)."""

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

    def shard_rows(self, shard: int) -> int:
        return len(range(shard, self.rows, self.num_shards))


class LookupRowMapping(RowMapping):
    """Arbitrary row→shard assignment backed by dense lookup arrays.

    Built by :meth:`from_weights` for frequency-range partitioning:
    rows are ranked by profiled traffic and the rank order is cut into
    contiguous ranges of roughly equal total traffic, one per shard —
    hot rows are spread deliberately instead of hashed blindly.
    """

    def __init__(self, shard_of: np.ndarray):
        shard_of = np.asarray(shard_of, dtype=np.int64)
        if shard_of.ndim != 1 or shard_of.size < 1:
            raise ValueError("shard_of must be a non-empty 1-D array")
        self.rows = int(shard_of.size)
        self.num_shards = int(shard_of.max()) + 1
        counts = np.bincount(shard_of, minlength=self.num_shards)
        if counts.min() < 1:
            raise ValueError("every shard must own at least one row")
        self._shard_of = shard_of
        # Local id = rank among the shard's rows in ascending global id:
        # one cumulative count per shard, vectorized over all rows.
        one = np.ones(self.rows, dtype=np.int64)
        local = np.zeros(self.rows, dtype=np.int64)
        for s in range(self.num_shards):
            mask = shard_of == s
            local[mask] = np.cumsum(one[mask]) - 1
        self._local_of = local

    @classmethod
    def from_weights(cls, weights: np.ndarray, num_shards: int) -> "LookupRowMapping":
        """Frequency-range partition: balance summed ``weights`` per shard."""
        weights = np.asarray(weights, dtype=np.float64)
        rows = weights.size
        if rows < num_shards:
            raise ValueError("need rows >= num_shards")
        order = np.argsort(-weights, kind="stable")  # hottest first
        shard_of_rank = np.empty(rows, dtype=np.int64)
        total = float(weights.sum())
        if total > 0:
            csum = np.cumsum(weights[order])
            cuts = np.searchsorted(
                csum, total * np.arange(1, num_shards) / num_shards, side="left"
            )
        else:
            cuts = np.array([], dtype=np.int64)
        bounds = np.concatenate(([0], np.asarray(cuts, dtype=np.int64), [rows]))
        if np.any(np.diff(bounds) < 1):
            # Degenerate profiles (one row dominating, all-zero weights)
            # can empty a range; fall back to equal-count ranges.
            bounds = np.linspace(0, rows, num_shards + 1).astype(np.int64)
        for s in range(num_shards):
            shard_of_rank[bounds[s] : bounds[s + 1]] = s
        shard_of = np.empty(rows, dtype=np.int64)
        shard_of[order] = shard_of_rank
        return cls(shard_of)

    def shard_of(self, ids: np.ndarray) -> np.ndarray:
        return self._shard_of[np.asarray(ids, dtype=np.int64)]

    def local_ids(self, ids: np.ndarray) -> np.ndarray:
        return self._local_of[np.asarray(ids, dtype=np.int64)]

    def global_ids(self, shard: int) -> np.ndarray:
        return np.flatnonzero(self._shard_of == shard).astype(np.int64)


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
    mapping: Optional[RowMapping] = None

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

    def mappings(self) -> Dict[str, RowMapping]:
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


def _table_weight(feature, balance_by: str) -> float:
    if balance_by == "bytes":  # the policies refuse any other value
        return float(feature.spec.logical_bytes)
    # Expected lookups per sample times row bytes: bandwidth demand.
    return float(feature.lookups * feature.spec.row_bytes)


def _assign_whole(features, num_shards: int, balance_by: str) -> Dict[str, int]:
    """Greedy LPT bin packing: heaviest table to the least-loaded shard."""
    loads = [0.0] * num_shards
    home: Dict[str, int] = {}
    weighted = sorted(
        features, key=lambda f: (-_table_weight(f, balance_by), f.name)
    )
    for feature in weighted:
        shard = min(range(num_shards), key=lambda s: (loads[s], s))
        loads[shard] += _table_weight(feature, balance_by)
        home[feature.name] = shard
    return home


class TableShardPolicy(ShardingPolicy):
    """Whole tables assigned to devices, balancing size or traffic.

    ``balance_by='bytes'`` balances stored bytes (capacity scaling);
    ``'traffic'`` balances expected lookup bandwidth (throughput
    scaling).  Per-table SLS ops are unchanged, so pooled outputs equal
    replicate mode (exactly on DRAM; up to device-side accumulation
    order on ssd/ndp).
    """

    name = "table"

    def __init__(self, balance_by: str = "traffic"):
        self.balance_by = balance_by
        if balance_by not in ("bytes", "traffic"):
            raise ValueError(f"unknown balance_by {balance_by!r} (bytes|traffic)")

    def plan(self, model, num_shards: int) -> ShardPlan:
        home = _assign_whole(model.features, num_shards, self.balance_by)
        placements = {
            name: TablePlacement(name, (shard,), None)
            for name, shard in home.items()
        }
        return ShardPlan(num_shards, "table", placements)

    def plans(self, model, num_shards: int) -> List[ShardPlan]:
        return [self.plan(model, num_shards)]


class RowShardPolicy(ShardingPolicy):
    """Row-partition large tables across all devices; whole-assign the rest.

    Tables with ``rows >= threshold_rows`` are split by
    :class:`ModuloRowMapping` (hash) or, when ``profiles`` supplies a
    per-row traffic weight array for the table, by
    :meth:`LookupRowMapping.from_weights` (frequency ranges — hot rows
    spread deliberately across devices).  Pooled outputs equal replicate
    mode up to float32 partial-sum order.
    """

    name = "row"

    @checked
    def __init__(
        self,
        threshold_rows: PosCount = 1 << 15,
        profiles: Optional[Dict[str, np.ndarray]] = None,
        balance_by: str = "traffic",
    ):
        self.threshold_rows = threshold_rows
        self.profiles = dict(profiles or {})
        self.balance_by = balance_by
        if balance_by not in ("bytes", "traffic"):
            raise ValueError(f"unknown balance_by {balance_by!r} (bytes|traffic)")

    def plan(self, model, num_shards: int) -> ShardPlan:
        split = [
            f
            for f in model.features
            if f.spec.rows >= max(self.threshold_rows, num_shards)
        ]
        whole = [f for f in model.features if f not in split]
        placements: Dict[str, TablePlacement] = {}
        for feature in split:
            profile = self.profiles.get(feature.name)
            if profile is not None:
                profile = np.asarray(profile, dtype=np.float64)
                if profile.size != feature.spec.rows:
                    raise ValueError(
                        f"profile for {feature.name!r} has {profile.size} "
                        f"weights but the table has {feature.spec.rows} rows"
                    )
                mapping: RowMapping = LookupRowMapping.from_weights(
                    profile, num_shards
                )
            else:
                mapping = ModuloRowMapping(feature.spec.rows, num_shards)
            placements[feature.name] = TablePlacement(
                feature.name, tuple(range(num_shards)), mapping
            )
        for name, shard in _assign_whole(whole, num_shards, self.balance_by).items():
            placements[name] = TablePlacement(name, (shard,), None)
        return ShardPlan(num_shards, "row", placements)

    def plans(self, model, num_shards: int) -> List[ShardPlan]:
        return [self.plan(model, num_shards)]
