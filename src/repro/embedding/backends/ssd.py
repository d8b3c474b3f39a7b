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
from ...sim.stats import Breakdown
from ..caches import SetAssociativeLru
from ..table import EmbeddingTable, TablePageContent
from .base import SlsBackend, SlsOpResult

__all__ = ["SsdSlsBackend"]


class SsdSlsBackend(SlsBackend):
    def __init__(
        self,
        system,
        table: EmbeddingTable,
        host_cache: Optional[SetAssociativeLru] = None,
        coalesce: bool = False,
        max_coalesce_lbas: int = 32,
    ):
        super().__init__(system, table)
        self.host_cache = host_cache
        self.coalesce = coalesce
        self.max_coalesce_lbas = max_coalesce_lbas

    # ------------------------------------------------------------------
    def _start(self, bags: Bags, on_done: Callable[[SlsOpResult], None]) -> None:
        sim = self.system.sim
        driver = self.system.driver_for(self.table.device)
        host_cpu = self.system.host_cpu
        table = self.table
        start = sim.now
        rows, rids = bags.ids, bags.rids
        # Before the cache sees them: -1 is its empty-tag value, and an id
        # past the table can land in the last page's padding.
        table.data._check_ids(rows)
        values = np.zeros((len(bags), table.spec.dim), dtype=np.float32)
        breakdown = Breakdown()
        stats: Dict[str, float] = {
            "lookups": float(rows.size),
            "cache_hits": 0.0,
            "commands": 0.0,
        }
        host_tail = host_cpu.config.op_overhead_s

        # ---- host cache filter (one batched probe) -----------------------
        if self.host_cache is not None and rows.size:
            hit_mask, hit_vecs = self.host_cache.probe_filter(rows)
            if hit_vecs is not None:
                n_hits = hit_vecs.shape[0]
                values += segment_sum(hit_vecs, rids[hit_mask], len(bags))
                cost = host_cpu.accumulate_time(n_hits, table.spec.row_bytes)
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

        # ---- group misses by LBA run (mask/unique, no dict loop) ---------
        # Translate once to storage ranks: spans, page indices and slots
        # all address the (possibly heat-packed) physical placement,
        # while ``rows`` keeps the external ids for cache keys/values.
        srows = table.storage_ids(rows)
        spans = table.lba_span_of_storage(srows)  # [n, 2] (first_lba, nlb)
        encode = int(spans[:, 1].max()) + 1
        uniq_keys, member_order, bounds = group_slices(
            spans[:, 0] * encode + spans[:, 1]
        )
        span_first = uniq_keys // encode
        span_nlb = uniq_keys % encode
        commands = self._plan_command_ranges(span_first, span_nlb)
        stats["commands"] = float(len(commands))
        stats["unique_blocks"] = float(uniq_keys.size)

        pending = {"n": len(commands), "accumulate_cost": 0.0}
        rpp = table.rows_per_page
        page_bytes = table.page_bytes
        base_lpn = (table.base_lba * table.lba_bytes) // page_bytes
        quant = table.spec.quant
        dim = table.spec.dim
        row_bytes = table.spec.row_bytes
        host_cache = self.host_cache

        # A command's members are one slice of the span-grouped order, so
        # in that order everything a completion touches is a view.
        rows_m = rows[member_order]
        rids_m = rids[member_order]
        position = np.arange(rows.size)

        # Miss vectors, gathered once for the whole op at its first
        # fast-route completion.  Valid whenever a command's pages are
        # this table's virtual (preloaded) images — extraction from those
        # is definitionally ``table.get_rows`` — so such a completion only
        # notes its slice: the sum is owed to ``values`` and the refill to
        # the host cache.  Commands with an uncorrectable page, or pages
        # rewritten through the IO path (raw buffers), take the slow
        # route: true extraction, summed and refilled on the spot.  An
        # update batch committed after the gather has invalidated its
        # rows in the host cache; a refill made later than that re-reads
        # its rows, so it cannot put the pre-commit vectors back (the
        # op's own sum keeps what it gathered).
        gathered: List[np.ndarray] = []
        owed: List[Tuple[int, int]] = []         # completion order

        def settle() -> None:
            """Sum the owed slices into ``values`` exactly as one
            ``scatter_add_vectors`` per command, in completion order."""
            if not owed:
                return
            if len(owed) == 1:
                a, b = owed[0]
                which = slice(a, b)
            else:
                which = np.concatenate([position[a:b] for a, b in owed])
            scatter_add_segments(
                values, rids_m[which], gathered[0][which], [b - a for a, b in owed]
            )
            owed.clear()

        def slow_route(segments, a: int, b: int) -> int:
            got_rows = rows_m[a:b]
            got_srows = srows[member_order[a:b]]
            got_rids = rids_m[a:b]
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
                stats["uncorrectable_rows"] = stats.get(
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
                settle()        # float32 sums keep completion order
                scatter_add_vectors(values, got_rids, vecs)
                if host_cache is not None:
                    host_cache.insert_many(got_rows, vecs)
            return got_rows.size

        def make_handler(a: int, b: int):
            def handle(cpl) -> None:
                if not cpl.ok:
                    raise RuntimeError(f"baseline SLS read failed: {cpl.status}")
                segments = cpl.payload.segments
                if all(
                    type(seg.content) is TablePageContent and seg.content.table is table
                    for seg in segments
                ):
                    if not gathered:
                        gathered.append(table.get_rows(rows_m))
                        pending["gathered_at"] = table.data.commits
                    owed.append((a, b))
                    if host_cache is not None:
                        refill = gathered[0][a:b]
                        if table.data.commits != pending["gathered_at"]:
                            refill = table.get_rows(rows_m[a:b])
                        host_cache.insert_later(rows_m[a:b], refill)
                    n_rows = b - a
                else:
                    n_rows = slow_route(segments, a, b)
                pending["accumulate_cost"] += host_cpu.accumulate_time(n_rows, row_bytes)
                pending["n"] -= 1
                if pending["n"] == 0:
                    settle()
                    io_wait = sim.now - start
                    breakdown.add("io_wait", io_wait)
                    breakdown.add("host_accumulate", pending["accumulate_cost"])
                    self._finish(
                        sim,
                        host_tail + pending["accumulate_cost"],
                        values,
                        start,
                        breakdown,
                        stats,
                        on_done,
                    )

            return handle

        edges = bounds.tolist()
        for slba, nlb, lo, hi in commands:
            driver.read(slba, nlb, make_handler(edges[lo], edges[hi]))

    def _plan_command_ranges(
        self, span_first: np.ndarray, span_nlb: np.ndarray
    ) -> List[Tuple[int, int, int, int]]:
        """Sorted unique spans -> ``(slba, nlb, span_lo, span_hi)`` commands.

        Members are the half-open unique-span index range (consecutive,
        since commands merge sorted runs).  Coalescing merges spans, gaps
        included (the extra blocks ride along in the transfer), as long
        as the command stays within the max transfer size.
        """
        n = span_first.size
        if n == 0:
            return []
        if not self.coalesce:
            return [
                (int(span_first[i]), int(span_nlb[i]), i, i + 1) for i in range(n)
            ]
        commands: List[Tuple[int, int, int, int]] = []
        cur_start = int(span_first[0])
        cur_nlb = int(span_nlb[0])
        lo = 0
        for i in range(1, n):
            lba = int(span_first[i])
            nlb = int(span_nlb[i])
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
        def finish() -> None:
            on_done(
                SlsOpResult(
                    values=values,
                    start_time=start,
                    end_time=sim.now,
                    breakdown=breakdown,
                    stats=stats,
                )
            )

        sim.schedule(tail_cost, finish)
