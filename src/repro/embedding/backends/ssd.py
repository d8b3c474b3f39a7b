"""Baseline SSD SLS backend: conventional NVMe block reads + host accumulate.

This is the "COTS SSD" configuration of the paper: the host computes
which logical blocks hold the needed vectors, issues one conventional
read per (deduplicated) block run through the user-space driver, extracts
the vectors as payloads return, and accumulates on the host CPU.  An
optional host-DRAM LRU cache filters lookups first (Fig 10 baseline).

The hot path is batch-first: the cache filter and LBA-span grouping run
as numpy array operations, and a completed command only notes which
slice of the op's rows it delivered — the op gathers its
miss vectors once, sums them into the result once (at its last
completion) and hands each refill to the host cache to make before the
cache is next looked at.  No per-row Python between the serving layer
and the driver, and no numpy call per command.  (The per-command route
this replaced is ``tests/embedding/reference_ssd_backend.py``.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ...core.bags import Bags
from ...core.extract import extract_vectors, extract_vectors_many
from ...core.vecops import (
    group_slices,
    scatter_add_segments,
    scatter_add_vectors,
    segment_sum,
)
from ...nvme.commands import NvmeCompletion, Status
from ...params import PosCount, checked
from ...sim.stats import Breakdown
from ..caches import SetAssociativeLru
from ..table import EmbeddingTable, TablePageContent
from .base import SlsBackend, SlsOpResult

__all__ = ["SsdSlsBackend"]


@dataclass(slots=True, eq=False)
class _SsdOp:
    """One SLS op's block reads in flight.

    A command's members are one slice ``[a, b)`` of the span-grouped
    order (``rows_m`` / ``rids_m``), so everything a completion touches
    is a view; the command's callback is ``partial(op.completed, a, b)``.

    Miss vectors are gathered once for the whole op at its first
    fast-route completion.  That is valid whenever a command's pages are
    this table's virtual (preloaded) images — extraction from those is
    definitionally ``table.get_rows`` — so such a completion only notes
    its slice: the sum is owed to ``values`` and the refill to the host
    cache.  Commands with an uncorrectable page, or pages rewritten
    through the IO path (raw buffers), take the slow route: true
    extraction, summed and refilled on the spot.  An update batch
    committed after the gather has invalidated its rows in the host
    cache; a refill made later than that re-reads its rows, so it cannot
    put the pre-commit vectors back (the op's own sum keeps what it
    gathered).
    """

    backend: "SsdSlsBackend"
    on_done: Callable[[SlsOpResult], None]
    values: np.ndarray
    start: float
    breakdown: Breakdown
    stats: Dict[str, float]
    host_tail: float
    row_bytes: int
    rows_m: np.ndarray              # external ids, span-grouped order
    rids_m: np.ndarray
    srows: np.ndarray               # storage ranks, miss order
    member_order: np.ndarray
    pending: int                    # commands not yet completed
    accumulate_cost: float = 0.0
    gathered: Optional[np.ndarray] = None       # vectors of ``rows_m``
    gathered_at: int = 0                        # ``table.data.commits`` then
    # Owed slices, in completion order: their positions and sizes.
    owed_rows: List[int] = field(default_factory=list)
    owed_sizes: List[int] = field(default_factory=list)

    def completed(self, a: int, b: int, cpl: NvmeCompletion) -> None:
        if cpl.status is not Status.SUCCESS:
            raise RuntimeError(f"baseline SLS read failed: {cpl.status}")
        backend = self.backend
        table = backend.table
        segments = cpl.payload.segments
        for seg in segments:
            content = seg.content
            if type(content) is not TablePageContent or content.table is not table:
                n_rows = self.slow_route(segments, a, b)
                break
        else:
            if self.gathered is None:
                # ``_start`` checked the op's ids: nothing checks them again.
                self.gathered = table.rows_at(self.srows[self.member_order])
                self.gathered_at = table.data.commits
            self.owed_rows.extend(range(a, b))
            self.owed_sizes.append(b - a)
            host_cache = backend.host_cache
            if host_cache is not None:
                refill = self.gathered[a:b]
                if table.data.commits != self.gathered_at:
                    refill = table.rows_at(self.srows[self.member_order[a:b]])
                host_cache.insert_later(self.rows_m[a:b], refill)
            n_rows = b - a
        system = backend.system
        self.accumulate_cost += system.host_cpu.accumulate_time(n_rows, self.row_bytes)
        self.pending -= 1
        if self.pending == 0:
            self.settle()
            self.breakdown.add("io_wait", system.sim.now - self.start)
            self.breakdown.add("host_accumulate", self.accumulate_cost)
            backend._finish(
                system.sim,
                self.host_tail + self.accumulate_cost,
                self.values,
                self.start,
                self.breakdown,
                self.stats,
                self.on_done,
            )

    def settle(self) -> None:
        """Sum the owed slices into ``values`` exactly as one
        ``scatter_add_vectors`` per command, in completion order."""
        sizes = self.owed_sizes
        if not sizes:
            return
        which = np.array(self.owed_rows, dtype=np.intp)
        scatter_add_segments(self.values, self.rids_m[which], self.gathered[which], sizes)
        self.owed_rows = []
        self.owed_sizes = []

    def slow_route(self, segments, a: int, b: int) -> int:
        table = self.backend.table
        rpp = table.rows_per_page
        base_lpn = (table.base_lba * table.lba_bytes) // table.page_bytes
        quant, dim = table.spec.quant, table.spec.dim
        got_rows = self.rows_m[a:b]
        got_srows = self.srows[self.member_order[a:b]]
        got_rids = self.rids_m[a:b]
        bad_lpns = [seg.lpn for seg in segments if seg.content is None]
        if bad_lpns:
            # Uncorrectable pages: their rows contribute zeros and
            # must not be inserted into the host cache (that would
            # pin zeros past the fault).  Count them for quality
            # accounting; the op still completes.
            ok = ~np.isin(
                base_lpn + got_srows // rpp,
                np.asarray(bad_lpns, dtype=np.int64),
            )
            self.stats["uncorrectable_rows"] = self.stats.get(
                "uncorrectable_rows", 0.0
            ) + float(got_rows.size - int(np.count_nonzero(ok)))
            got_rows = got_rows[ok]
            got_srows = got_srows[ok]
            got_rids = got_rids[ok]
        if got_rows.size:
            if len(segments) == 1:
                # Single-page command (every non-coalesced command):
                # one direct extract, no grouping machinery.
                vecs = extract_vectors(
                    segments[0].content, got_srows % rpp, dim, rpp, quant
                )
            else:
                content_by_lpn = {seg.lpn: seg.content for seg in segments}
                vecs = extract_vectors_many(
                    content_by_lpn,
                    base_lpn + got_srows // rpp,
                    got_srows % rpp,
                    dim,
                    rpp,
                    quant,
                )
            self.settle()       # float32 sums keep completion order
            scatter_add_vectors(self.values, got_rids, vecs)
            host_cache = self.backend.host_cache
            if host_cache is not None:
                host_cache.insert_many(got_rows, vecs)
        return got_rows.size


class SsdSlsBackend(SlsBackend):
    @checked
    def __init__(
        self,
        system,
        table: EmbeddingTable,
        host_cache: Optional[SetAssociativeLru] = None,
        coalesce: bool = False,
        max_coalesce_lbas: PosCount = 32,
    ):
        super().__init__(system, table)
        self.host_cache = host_cache
        self.coalesce = coalesce
        self.max_coalesce_lbas = max_coalesce_lbas

    # ------------------------------------------------------------------
    def _start(self, bags: Bags, on_done: Callable[[SlsOpResult], None]) -> None:
        sim = self.system.sim
        host_cpu = self.system.host_cpu
        table = self.table
        start = sim.now
        rows, rids = bags.ids, bags.rids
        # Before the cache sees them: -1 is its empty-tag value, and an id
        # past the table can land in the last page's padding.
        table.data._check_ids(rows)
        n_bags = len(bags)
        values = np.zeros((n_bags, table.spec.dim), dtype=np.float32)
        breakdown = Breakdown()
        stats: Dict[str, float] = {
            "lookups": float(rows.size),
            "cache_hits": 0.0,
            "commands": 0.0,
        }
        host_tail = host_cpu.config.op_overhead_s
        row_bytes = table.spec.row_bytes

        # ---- host cache filter (one batched probe) -----------------------
        if self.host_cache is not None and rows.size:
            hit_mask, hit_vecs = self.host_cache.probe_filter(rows)
            if hit_vecs is not None:
                n_hits = hit_vecs.shape[0]
                values += segment_sum(hit_vecs, rids[hit_mask], n_bags)
                cost = host_cpu.accumulate_time(n_hits, row_bytes)
                breakdown.add("cache_hit_accumulate", cost)
                host_tail += cost
                stats["cache_hits"] = float(n_hits)
                keep = ~hit_mask
                rows = rows[keep]
                rids = rids[keep]

        # Per-lookup index handling cost on the host.
        host_tail += rows.size * host_cpu.config.sls_per_lookup_s

        if rows.size == 0:
            self._finish(sim, host_tail, values, start, breakdown, stats, on_done)
            return

        # ---- group misses by LBA run (one stable sort, no dict loop) -----
        # Translate once to storage ranks: spans, page indices and slots
        # all address the (possibly heat-packed) physical placement,
        # while ``rows`` keeps the external ids for cache keys/values.
        srows = table.storage_ids(rows)
        spans = table.lba_span_of_storage(srows)  # [n, 2] (first_lba, nlb)
        span_nlb = spans[:, 1]
        encode = int(np.maximum.reduce(span_nlb)) + 1
        uniq_keys, member_order, bounds = group_slices(spans[:, 0] * encode + span_nlb)
        commands = self._plan_command_ranges(uniq_keys // encode, uniq_keys % encode)
        stats["commands"] = float(len(commands))
        stats["unique_blocks"] = float(uniq_keys.size)

        op = _SsdOp(
            self, on_done, values, start, breakdown, stats, host_tail, row_bytes,
            rows[member_order], rids[member_order], srows, member_order, len(commands),
        )
        read = self.system.driver_for(table.device).read
        edges = bounds.tolist()
        for slba, nlb, lo, hi in commands:
            read(slba, nlb, partial(op.completed, edges[lo], edges[hi]))

    def _plan_command_ranges(
        self, span_first: np.ndarray, span_nlb: np.ndarray
    ) -> List[Tuple[int, int, int, int]]:
        """Sorted unique spans -> ``(slba, nlb, span_lo, span_hi)`` commands.

        Members are the half-open unique-span index range (consecutive,
        since commands merge sorted runs).  Coalescing merges spans, gaps
        included (the extra blocks ride along in the transfer), as long
        as the command stays within the max transfer size.
        """
        firsts, nlbs = span_first.tolist(), span_nlb.tolist()
        n = len(firsts)
        if not self.coalesce:
            return list(zip(firsts, nlbs, range(n), range(1, n + 1)))
        if n == 0:
            return []
        commands: List[Tuple[int, int, int, int]] = []
        cur_start, cur_nlb = firsts[0], nlbs[0]
        lo = 0
        for i in range(1, n):
            lba, nlb = firsts[i], nlbs[i]
            if (lba + nlb - cur_start) <= self.max_coalesce_lbas:
                cur_nlb = max(cur_nlb, lba + nlb - cur_start)
            else:
                commands.append((cur_start, cur_nlb, lo, i))
                cur_start, cur_nlb = lba, nlb
                lo = i
        commands.append((cur_start, cur_nlb, lo, n))
        return commands

    # ------------------------------------------------------------------
    def _finish(self, sim, tail_cost, values, start, breakdown, stats, on_done) -> None:
        sim.schedule_call(tail_cost, self._deliver, (values, start, breakdown, stats, on_done))

    def _deliver(self, done: tuple) -> None:
        values, start, breakdown, stats, on_done = done
        on_done(SlsOpResult(values, start, self.system.sim.now, breakdown, stats))
