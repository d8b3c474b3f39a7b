"""RecSSD NDP SLS backend.

Offloads the gather + accumulate to the SSD's FTL via the NDP session.
With a static host partition (Section 4.2), profiled-hot rows are summed
host-side and the SSD handles only the cold remainder; the returned
partial sums are merged on the host — exactly the post-processing step
the paper describes.

The hot/cold split runs batch-first: one vectorized membership probe
over the flat ids, a segment-sum for the per-bag hot partials, and
``Bags.select`` for the cold remainder — no per-bag Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from ...core.bags import Bags
from ...core.vecops import segment_sum
from ...host.system import System
from ...sim.stats import Breakdown
from ..caches import StaticPartitionCache
from ..table import EmbeddingTable
from .base import SlsBackend, SlsOpResult

__all__ = ["NdpSlsBackend"]


@dataclass(slots=True, eq=False)
class _NdpOp:
    """One op from its offload to its result: the device's completion and
    the host's finish are its bound methods."""

    system: System
    row_bytes: int
    start: float
    host_cost: float         # per-op overhead plus the host partition's sums
    partial: Optional[np.ndarray]  # per-result host partition sums, if any
    breakdown: Breakdown
    stats: Dict[str, float]
    on_done: Callable[[SlsOpResult], None]
    values: Optional[np.ndarray] = None

    def ndp_done(self, payload, _timing) -> None:
        stats = self.stats
        self.breakdown.merge(payload.breakdown)
        stats["flash_pages_read"] = float(payload.flash_pages_read)
        stats["ssd_page_cache_hits"] = float(payload.page_cache_hits)
        stats["emb_cache_hits"] = float(payload.emb_cache_hits)
        if payload.uncorrectable_pages:
            stats["uncorrectable_pages"] = float(payload.uncorrectable_pages)
        # Post-process: merge SSD partial sums with host partition sums.
        values = payload.values
        merge_cost = self.system.host_cpu.accumulate_time(len(values), self.row_bytes)
        self.breakdown.add("host_merge", merge_cost)
        # Without a partition there is nothing to add: ``values`` is the
        # device's scratchpad, which no ``-0.0`` reaches (sums start at
        # ``+0.0``), so adding zeros would not change a bit.
        self.values = values if self.partial is None else values + self.partial
        self.system.sim.schedule(self.host_cost + merge_cost, self.finish)

    def finish(self) -> None:
        self.on_done(
            SlsOpResult(
                values=self.values,
                start_time=self.start,
                end_time=self.system.sim.now,
                breakdown=self.breakdown,
                stats=self.stats,
            )
        )


class NdpSlsBackend(SlsBackend):
    def __init__(
        self,
        system,
        table: EmbeddingTable,
        partition: Optional[StaticPartitionCache] = None,
    ):
        super().__init__(system, table)
        self.partition = partition
        # Host-path fallback used while the device's NDP engine is down
        # (fault injection); built lazily so healthy runs never touch it.
        self._fallback = None
        self.fallback_ops = 0

    # ------------------------------------------------------------------
    def _split_partition(
        self,
        bags: Bags,
        partial: Optional[np.ndarray],
        breakdown: Breakdown,
        stats: Dict[str, float],
    ) -> tuple[Bags, float]:
        """Host half of Section 4.2: sum profiled-hot rows host-side.

        Fills ``partial`` (``None`` exactly when there is no partition)
        with the per-result hot sums and returns the cold
        remainder (the same bags, hot ids removed) plus the host CPU time
        the split cost.
        """
        cold = bags
        host_cost = 0.0
        partition_hits = 0
        if self.partition is not None:
            rows = bags.ids
            mask = self.partition.partition_mask(rows)
            hot_rows = rows[mask]
            partition_hits = int(hot_rows.size)
            if partition_hits:
                # rids ascend (bags flatten in order), so the per-bag hot
                # sums are one segment reduce.
                partial += segment_sum(
                    self.partition.vectors_for(hot_rows), bags.rids[mask], len(bags)
                )
            cold = bags.select(~mask)
            host_cost = self.system.host_cpu.accumulate_time(
                partition_hits, self.table.spec.row_bytes
            )
            breakdown.add("host_partition", host_cost)
        stats["lookups"] = float(bags.ids.size)
        stats["partition_hits"] = float(partition_hits)
        stats["cold_lookups"] = float(cold.ids.size)
        return cold, host_cost

    def _start(self, bags: Bags, on_done: Callable[[SlsOpResult], None]) -> None:
        device = getattr(self.table, "device", None)
        if device is not None and getattr(device.ndp, "down", False):
            self._start_fallback(bags, on_done)
            return
        table = self.table
        breakdown = Breakdown()
        stats: Dict[str, float] = {}
        partial = None
        if self.partition is not None:
            partial = np.zeros((len(bags), table.spec.dim), dtype=np.float32)

        cold, split_cost = self._split_partition(bags, partial, breakdown, stats)
        op = _NdpOp(
            self.system,
            table.spec.row_bytes,
            self.system.sim.now,
            self.system.host_cpu.config.op_overhead_s + split_cost,
            partial,
            breakdown,
            stats,
            on_done,
        )
        if stats["cold_lookups"] == 0:
            # Everything was served from the host partition (or there
            # was nothing to look up).
            op.values = (
                partial if partial is not None
                else np.zeros((len(bags), table.spec.dim), dtype=np.float32)
            )
            self.system.sim.schedule(op.host_cost, op.finish)
            return
        self.system.session_for(table.device).sls(table.make_sls_config(cold), op.ndp_done)

    # ------------------------------------------------------------------
    def _start_fallback(self, bags: Bags, on_done: Callable[[SlsOpResult], None]) -> None:
        """NDP engine down: serve via the host-orchestrated SSD read path.

        Graceful degradation, not failure — the data is still on the
        device, only the in-storage compute is gone, so the host reads
        pages and accumulates itself (slower, but correct).  Results are
        tagged ``ndp_fallback`` so stats can separate the two paths.
        """
        from .ssd import SsdSlsBackend

        if self._fallback is None:
            self._fallback = SsdSlsBackend(self.system, self.table)
        self.fallback_ops += 1

        def tagged(result: SlsOpResult) -> None:
            result.stats["ndp_fallback"] = 1.0
            on_done(result)

        self._fallback._start(bags, tagged)

    def reset_stats(self) -> None:
        super().reset_stats()
        self.fallback_ops = 0
        if self._fallback is not None:
            self._fallback.reset_stats()
