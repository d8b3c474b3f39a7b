"""The parent commit's ``NdpSlsEngine``, kept verbatim: one
``extract_vectors -> scatter_add_vectors -> insert_many`` chain per
flash page, inside the page's own ``apply`` event.

The reference ``tests/core/test_engine_equivalence.py`` holds
``repro.core.engine`` to (as ``tests/sim/reference_resources.py`` is for
the event engine): values are read page by page at each translate
instant, pages are bucketed with copies and interleaved across channels
by draining a dict of deques round-robin, and the translate cost is
recomputed from ``cfg`` and ``ftl.cpu.costs`` per page.
``repro.core.engine`` must produce the same scratchpad bytes, cache
state, counters, payloads, instants and event count.

``NdpEngineConfig``, ``SlsResultPayload`` and ``PROCESS_CHUNK_PAIRS``
are imported, not copied (plain data, and the driver type-checks
neither); the additions are the no-op ``flush_gathers`` at the very end,
which the update and migration call sites now invoke on every engine,
and an unconditional page-cache probe (its config switch went).

Copied from commit b2c2e28463cbf3bfae06942808e12e2fb65d4935; do not edit
to follow ``src/``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Optional

import numpy as np

from repro.core.config import SlsConfig
from repro.core.embcache import DirectMappedEmbeddingCache
from repro.core.engine import PROCESS_CHUNK_PAIRS, NdpEngineConfig, SlsResultPayload
from repro.core.extract import extract_vectors
from repro.core.request import PageWork, SlsRequestEntry, SlsState
from repro.core.vecops import scatter_add_vectors
from repro.ftl.ftl import GreedyFtl
from repro.nvme.commands import NvmeCommand, SlbaCodec, Status
from repro.sim.kernel import Simulator

__all__ = ["NdpSlsEngine"]

CompleteFn = Callable[[Any, Status], None]


class NdpSlsEngine:
    """Attached to the FTL; receives NDP-flagged commands from the controller."""

    def __init__(
        self,
        sim: Simulator,
        ftl: GreedyFtl,
        controller: Any,
        codec: SlbaCodec,
        config: Optional[NdpEngineConfig] = None,
    ):
        self.sim = sim
        self.ftl = ftl
        self.controller = controller
        self.codec = codec
        self.config = config or NdpEngineConfig()
        # Fault-injection crash flag: a down engine takes no new SLS
        # work (the NDP backend falls back to the host read path).
        self.down = False
        self.entries: Dict[int, SlsRequestEntry] = {}
        self.emb_cache = DirectMappedEmbeddingCache(self.config.embcache_slots)
        # Round-robin feed order across entries with pending pages.
        self._feed_queue: Deque[SlsRequestEntry] = deque()
        self._inflight_pages = 0
        # Config-writes held while the entry buffer is full (queue_when_full).
        self._waiting_configs: Deque[tuple[NvmeCommand, CompleteFn]] = deque()
        self._waiting_rids: set[int] = set()
        self.requests_started = 0
        self.requests_completed = 0
        self.requests_rejected = 0
        self.requests_queued = 0
        # Concurrency accounting: how many SLS requests coexist in the
        # entry buffer, and for how long >=2 of them overlapped.
        self.max_concurrent_requests = 0
        self.requests_overlapped = 0
        self.overlap_seconds = 0.0
        self._active_prev = 0
        self._active_since = sim.now

    # ------------------------------------------------------------------
    # Config-write half (steps 1a, 2a/2b)
    # ------------------------------------------------------------------
    def handle_config_write(self, cmd: NvmeCommand, done: CompleteFn) -> None:
        sls_config = cmd.data
        if not isinstance(sls_config, SlsConfig):
            done(None, Status.INVALID_FIELD)
            return
        table_base_lba, request_id = self.codec.decode(cmd.slba)
        if table_base_lba != sls_config.table_base_lba:
            done(None, Status.INVALID_FIELD)
            return
        lbas_per_page = self.ftl.lbas_per_page
        if table_base_lba % lbas_per_page != 0:
            done(None, Status.INVALID_FIELD)
            return
        if request_id in self.entries or request_id in self._waiting_rids:
            self.requests_rejected += 1
            done(None, Status.INTERNAL_ERROR)
            return
        if len(self.entries) >= self.config.max_entries:
            if (
                self.config.queue_when_full
                and len(self._waiting_configs) < self.config.max_queued_configs
            ):
                # Hold the command device-side; it completes (and processing
                # begins) once a buffer slot frees.  The outstanding NVMe
                # command backpressures the host through queue depth.
                self.requests_queued += 1
                self._waiting_rids.add(request_id)
                self._waiting_configs.append((cmd, done))
                return
            self.requests_rejected += 1
            done(None, Status.INTERNAL_ERROR)
            return
        self._admit(sls_config, request_id, table_base_lba // lbas_per_page, done)

    def _admit(
        self,
        sls_config: SlsConfig,
        request_id: int,
        table_base_lpn: int,
        done: CompleteFn,
    ) -> None:
        entry = SlsRequestEntry(
            request_id=request_id,
            config=sls_config,
            table_base_lpn=table_base_lpn,
            t_start=self.sim.now,
        )
        entry.init_scratchpad()
        self.entries[request_id] = entry
        self.requests_started += 1
        self._account_active_change()
        costs = self.ftl.cpu.costs

        def after_alloc() -> None:
            entry.state = SlsState.CONFIG_TRANSFER
            self.controller.dma_to_device(sls_config.encoded_bytes, after_dma)

        def after_dma() -> None:
            entry.t_config_written = self.sim.now
            # The write-like command completes once the SSD holds the config;
            # processing continues asynchronously inside the FTL.
            done(None, Status.SUCCESS)
            self._process_config(entry)

        self.ftl.cpu.ftl_core.submit(costs.sls_entry_alloc_s, after_alloc)

    # ------------------------------------------------------------------
    def _process_config(self, entry: SlsRequestEntry) -> None:
        """Reformat inputs, probe the embedding cache, bucket by flash page."""
        entry.state = SlsState.PROCESSING
        cfg = entry.config
        pairs = cfg.pairs
        rows = pairs[:, 0]
        result_ids = pairs[:, 1]

        if cfg.table_rows is not None and rows.size and rows.max() >= cfg.table_rows:
            self._fail_entry(entry, "input id exceeds table rows")
            return

        # Embedding-cache fast path (step 2a): hits skip flash entirely.
        # One batched probe replaces the per-pair lookup loop.
        if self.emb_cache.slots > 0 and rows.size:
            table_key = entry.table_base_lpn
            hit_mask, hit_vectors = self.emb_cache.probe_many(table_key, rows)
            entry.emb_cache_hits = int(np.count_nonzero(hit_mask))
            if hit_vectors is not None:
                entry.cache_vectors = hit_vectors
                entry.cache_result_ids = result_ids[hit_mask]
                keep = ~hit_mask
                rows = rows[keep]
                result_ids = result_ids[keep]

        # Bucket misses by page (input is sorted by id, so pages come out
        # grouped; np.unique gives the page boundaries directly).
        if rows.size:
            page_idx = rows // cfg.rows_per_page
            slots = rows % cfg.rows_per_page
            uniq_pages, starts = np.unique(page_idx, return_index=True)
            bounds = list(starts) + [rows.size]
            for i, page in enumerate(uniq_pages):
                lo, hi = bounds[i], bounds[i + 1]
                entry.pending_pages.append(
                    PageWork(
                        lpn=int(entry.table_base_lpn + page),
                        slots=slots[lo:hi].copy(),
                        result_ids=result_ids[lo:hi].copy(),
                    )
                )
        self._interleave_by_channel(entry)
        entry.pages_total = len(entry.pending_pages)
        entry.cache_work_pending = (
            entry.cache_vectors is not None and len(entry.cache_vectors) > 0
        )

        # Pay the per-pair scan cost in chunks so page scheduling and
        # translation interleave with processing on the single FTL core.
        total_pairs = cfg.num_inputs
        chunk = PROCESS_CHUNK_PAIRS
        costs = self.ftl.cpu.costs

        def run_chunk(done_pairs: int) -> None:
            if done_pairs >= total_pairs:
                finish_processing()
                return
            n = min(chunk, total_pairs - done_pairs)
            cost = n * costs.sls_pair_s
            entry.cpu_config_process += cost
            self.ftl.cpu.ftl_core.submit(
                cost, lambda: run_chunk(done_pairs + n), priority=1
            )

        def finish_processing() -> None:
            entry.t_processed = self.sim.now
            entry.state = SlsState.GATHERING
            if entry.pages_total:
                self._feed_queue.append(entry)
            self._accumulate_cache_hits(entry)
            self._pump()
            self._maybe_finish(entry)

        if total_pairs == 0:
            finish_processing()
        else:
            run_chunk(0)

    def _account_active_change(self) -> None:
        """Update the overlap clock and concurrency gauges on entry add/remove."""
        now = self.sim.now
        if self._active_prev >= 2:
            self.overlap_seconds += now - self._active_since
        n = len(self.entries)
        if n >= 2:
            for e in self.entries.values():
                if not e.overlapped:
                    e.overlapped = True
                    self.requests_overlapped += 1
        if n > self.max_concurrent_requests:
            self.max_concurrent_requests = n
        self._active_prev = n
        self._active_since = now

    def _release_entry(self, request_id: int) -> None:
        """Free a buffer slot and admit the oldest waiting config, if any."""
        if self.entries.pop(request_id, None) is None:
            return
        self._account_active_change()
        if self._waiting_configs and len(self.entries) < self.config.max_entries:
            # Admit directly (already validated on arrival): re-entering
            # handle_config_write could lose the freed slot to a
            # same-timestamp arrival, re-queueing this command behind
            # newer ones and double-counting requests_queued.
            cmd, done = self._waiting_configs.popleft()
            table_base_lba, rid = self.codec.decode(cmd.slba)
            self._waiting_rids.discard(rid)
            self._admit(
                cmd.data, rid, table_base_lba // self.ftl.lbas_per_page, done
            )

    def _interleave_by_channel(self, entry: SlsRequestEntry) -> None:
        """Reorder page work round-robin across flash channels.

        The prototype feeds page requests into the FTL's per-channel
        request queues, which drain independently; issuing page-sorted
        requests through a single window would serialize on one die at a
        time (table pages are contiguous within a block).  Interleaving by
        channel reproduces the per-channel-queue parallelism.
        """
        if len(entry.pending_pages) < 2:
            return
        geometry = self.ftl.geometry
        works = list(entry.pending_pages)
        lpns = np.fromiter((w.lpn for w in works), dtype=np.int64, count=len(works))
        ppns = self.ftl.mapping.lookup_many(lpns)
        dies = (ppns // geometry.pages_per_block) // geometry.blocks_per_die
        channels = np.where(ppns >= 0, dies // geometry.ways, 0)
        buckets: Dict[int, Deque[PageWork]] = {}
        for work, channel in zip(works, channels.tolist()):
            buckets.setdefault(channel, deque()).append(work)
        interleaved: Deque[PageWork] = deque()
        queues = [buckets[c] for c in sorted(buckets)]
        while queues:
            remaining = []
            for q in queues:
                interleaved.append(q.popleft())
                if q:
                    remaining.append(q)
            queues = remaining
        entry.pending_pages = interleaved

    def _fail_entry(self, entry: SlsRequestEntry, reason: str) -> None:
        entry.state = SlsState.FAILED
        entry.error = reason
        entry.t_work_done = self.sim.now
        waiters, entry.result_waiters = entry.result_waiters, []
        for waiter in waiters:
            waiter()

    # ------------------------------------------------------------------
    def _accumulate_cache_hits(self, entry: SlsRequestEntry) -> None:
        if entry.cache_vectors is None or len(entry.cache_vectors) == 0:
            entry.cache_work_pending = False
            return
        vectors = entry.cache_vectors
        ids = entry.cache_result_ids
        cost = len(ids) * self.ftl.cpu.costs.sls_cache_hit_vec_s
        entry.cpu_translation += cost

        def apply() -> None:
            scatter_add_vectors(entry.scratchpad, ids, vectors)
            entry.cache_work_pending = False
            self._maybe_finish(entry)

        self.ftl.cpu.ftl_core.submit(cost, apply, priority=1)

    # ------------------------------------------------------------------
    # Page scheduling layer (step 3): RR feed into the page machinery.
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        while (
            self._inflight_pages < self.config.inflight_pages_window
            and self._feed_queue
        ):
            entry = self._feed_queue.popleft()
            if not entry.pending_pages:
                continue
            work = entry.pending_pages.popleft()
            if entry.pending_pages:
                # Round-robin: move the entry to the back so concurrent SLS
                # requests interleave page by page (fair sharing, Sec 4.1).
                self._feed_queue.append(entry)
            self._inflight_pages += 1
            self._issue_page(entry, work)

    def _issue_page(self, entry: SlsRequestEntry, work: PageWork) -> None:
        costs = self.ftl.cpu.costs

        def after_sched() -> None:
            hit, content = self.ftl.page_cache.peek(work.lpn)
            if hit:
                entry.page_cache_hits += 1
                self._page_returned(entry, work, content)
                return
            entry.flash_pages_read += 1
            self.ftl.ndp_read_mapped_page(
                work.lpn, lambda content: self._page_returned(entry, work, content)
            )

        self.ftl.cpu.ftl_core.submit(costs.sls_page_sched_s, after_sched)

    def _page_returned(self, entry: SlsRequestEntry, work: PageWork, content: Any) -> None:
        # The inflight window bounds *flash* occupancy; once the page data is
        # back on-chip the window slot frees so flash reads overlap with the
        # CPU-side translation backlog.
        self._inflight_pages -= 1
        self._pump()
        self._translate(entry, work, content)

    # ------------------------------------------------------------------
    # Translation (steps 4-5)
    # ------------------------------------------------------------------
    def _translate(self, entry: SlsRequestEntry, work: PageWork, content: Any) -> None:
        cfg = entry.config
        costs = self.ftl.cpu.costs
        nbytes = work.slots.size * cfg.row_bytes
        cost = costs.sls_translate_fixed_s + nbytes * costs.sls_translate_byte_s
        entry.cpu_translation += cost

        def apply() -> None:
            if content is None:
                # Uncorrectable read: the page's rows contribute zeros
                # (extract_vectors' None contract) and must NOT be
                # inserted into the embedding cache, which would serve
                # zeros for those rows long after the fault clears.
                entry.uncorrectable_pages += 1
            else:
                vectors = extract_vectors(
                    content, work.slots, cfg.vec_dim, cfg.rows_per_page, cfg.quant
                )
                scatter_add_vectors(entry.scratchpad, work.result_ids, vectors)
                if self.emb_cache.slots > 0:
                    page_row0 = (work.lpn - entry.table_base_lpn) * cfg.rows_per_page
                    self.emb_cache.insert_many(
                        entry.table_base_lpn, page_row0 + work.slots, vectors
                    )
            entry.pages_done += 1
            entry.pages_inflight -= 1
            self._maybe_finish(entry)

        entry.pages_inflight += 1
        self.ftl.cpu.ftl_core.submit(cost, apply, priority=1)

    # ------------------------------------------------------------------
    def _maybe_finish(self, entry: SlsRequestEntry) -> None:
        if entry.state is not SlsState.GATHERING or not entry.work_done:
            return
        entry.state = SlsState.COMPLETE
        entry.t_work_done = self.sim.now
        self.requests_completed += 1
        waiters, entry.result_waiters = entry.result_waiters, []
        for waiter in waiters:
            waiter()

    # ------------------------------------------------------------------
    # Result-read half (steps 1b, 6)
    # ------------------------------------------------------------------
    def handle_result_read(self, cmd: NvmeCommand, done: CompleteFn) -> None:
        _table_base, request_id = self.codec.decode(cmd.slba)
        entry = self.entries.get(request_id)
        if entry is None:
            done(None, Status.INVALID_FIELD)
            return

        def deliver() -> None:
            if entry.state is SlsState.FAILED:
                self._release_entry(entry.request_id)
                done(None, Status.INVALID_FIELD)
                return
            self._stage_results(entry, done)

        if entry.state is SlsState.COMPLETE or entry.state is SlsState.FAILED:
            deliver()
        else:
            entry.result_waiters.append(deliver)

    def _stage_results(self, entry: SlsRequestEntry, done: CompleteFn) -> None:
        cfg = entry.config
        n_pages = cfg.result_pages(self.ftl.page_bytes)
        costs = self.ftl.cpu.costs
        stage_cost = n_pages * costs.sls_result_page_s

        def after_stage() -> None:
            self.controller.dma_to_host(cfg.result_bytes, after_dma)

        def after_dma() -> None:
            self._release_entry(entry.request_id)
            payload = SlsResultPayload(
                values=entry.scratchpad,
                breakdown=entry.breakdown(),
                flash_pages_read=entry.flash_pages_read,
                page_cache_hits=entry.page_cache_hits,
                emb_cache_hits=entry.emb_cache_hits,
                uncorrectable_pages=entry.uncorrectable_pages,
            )
            done(payload, Status.SUCCESS)

        self.ftl.cpu.ftl_core.submit(stage_cost, after_stage, priority=1)

    # ------------------------------------------------------------------
    @property
    def active_requests(self) -> int:
        return len(self.entries)

    # -- not in the parent ------------------------------------------------
    def flush_gathers(self) -> None:
        """Nothing is ever owed: every page's values were read in its ``apply``."""
