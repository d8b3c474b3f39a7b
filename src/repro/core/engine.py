"""The RecSSD NDP SLS engine: the paper's core contribution.

Implements the lifetime in Figure 7.  A write-like NVMe command carries
the SLS configuration (step 1a); config processing buckets the sorted
input list by flash page, probing the SSD-side embedding cache as a fast
path (steps 2a/2b); a scheduling layer feeds per-entry page requests into
the low-level page machinery round-robin so concurrent SLS requests share
flash bandwidth fairly (step 3a), consulting the FTL page cache (step
3b); completed pages trigger the translation step (steps 4-5), which pays
its CPU time and claims its rows' embedding-cache slots page by page,
and extracts, accumulates and caches the needed vectors once per entry
(``_gather``); and a read-like command returns the accumulated result
pages (steps 1b/6).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Deque, Dict, Optional

import numpy as np

from ..flash.array import PageRead
from ..ftl.ftl import FLASH_READ, PAGE_CACHED, GreedyFtl
from ..nvme.commands import NvmeCommand, SlbaCodec, Status
from ..params import Count, PosCount, check_domains
from ..sim.kernel import Simulator
from ..sim.stats import Breakdown
from .config import SlsConfig
from .embcache import DirectMappedEmbeddingCache
from .extract import extract_vectors_paged
from .request import SlsRequestEntry, SlsState
from .vecops import scatter_add_segments, scatter_add_vectors

__all__ = ["NdpEngineConfig", "NdpSlsEngine", "SlsResultPayload", "PROCESS_CHUNK_PAIRS"]

# Config-processing CPU granularity: pairs scanned per ``ftl_core`` job.
PROCESS_CHUNK_PAIRS = 512

CompleteFn = Callable[[Any, Status], None]


@dataclass(slots=True, eq=False)
class SlsResultPayload:
    """Returned by the result-read command."""

    values: np.ndarray          # float32 [num_results, vec_dim]
    breakdown: Breakdown
    flash_pages_read: int
    page_cache_hits: int
    emb_cache_hits: int
    uncorrectable_pages: int = 0


@dataclass(frozen=True)
class NdpEngineConfig:
    max_entries: PosCount = 32             # pending-SLS-request buffer size
    inflight_pages_window: PosCount = 128  # page requests outstanding to flash
    embcache_slots: Count = 0              # 0 disables the SSD-side cache
    # When the entry buffer is full, hold further config-write commands
    # device-side (the NVMe command stays outstanding, so queue depth
    # provides natural backpressure) instead of failing them.  Serving
    # workloads enable this; the default preserves the prototype's
    # reject-on-overflow behaviour.
    queue_when_full: bool = False
    # Bound on commands held by queue_when_full; beyond it the engine
    # rejects again.  Held commands occupy driver qpair slots, so this
    # must stay below the aggregate queue depth (default 8x64) or the
    # result reads that free entries can never issue.
    max_queued_configs: Count = 64

    __post_init__ = check_domains


@dataclass(slots=True, eq=False)
class _PageJob(PageRead):
    """The inputs of one entry that live on one flash page, from their
    bucket to their translate (steps 2b-5): pairs ``[lo, hi)`` of the
    entry's ``ranks`` and ``result_ids``.  ``_process_config`` builds it,
    translate cost and all, and it waits in the entry's
    ``pending_pages``; from ``_pump`` on the stage callbacks are its bound
    methods, one frame each, and it is its own flash read (die and bus
    stages included), so a page in flight is this record and the bound
    method queued for it.  The entry refers to it only while it waits:
    before it is issued, and from its translate to the entry's next
    gather."""

    lpn: int
    lo: int
    hi: int
    engine: "NdpSlsEngine"
    entry: SlsRequestEntry
    translate_s: float
    content: Any = None

    def after_sched(self) -> None:
        # Step 3b: the page cache, else flash.  Counted where flash is
        # touched: an unmapped (TRIMmed) page comes back as ``None``
        # without a read.
        outcome = self.engine.ftl.ndp_read(self, self.lpn)
        if outcome == FLASH_READ:
            self.entry.flash_pages_read += 1
        elif outcome == PAGE_CACHED:
            self.entry.page_cache_hits += 1

    def landed(self, content: Any) -> None:
        self.content = content
        engine = self.engine
        # The inflight window bounds *flash* occupancy; once the page data is
        # back on-chip the window slot frees so flash reads overlap with the
        # CPU-side translation backlog.
        engine._inflight_pages -= 1
        if engine._feed_queue:
            engine._pump()
        # Translation (steps 4-5): pay the page's CPU time now, read its
        # values at the entry's gather.
        entry = self.entry
        entry.cpu_translation += self.translate_s
        entry.pages_inflight += 1
        engine.ftl_core.submit(self.translate_s, self.after_translate, 1)

    def after_translate(self) -> None:
        entry = self.entry
        if self.content is None:
            # Uncorrectable read: the page's rows contribute zeros
            # and must NOT be inserted into the embedding cache,
            # which would serve zeros for those rows long after the
            # fault clears.
            entry.uncorrectable_pages += 1
        else:
            entry.gather_pending.append(self)
            emb_cache = self.engine.emb_cache
            if emb_cache.slots > 0:
                # The tags decide which later probes hit; the vectors
                # follow at the entry's gather.
                emb_cache.insert_tags(entry.table_base_lpn, entry.rank_ints[self.lo : self.hi])
        entry.pages_done += 1
        entry.pages_inflight -= 1
        if entry.pages_done == entry.pages_total:
            self.engine._maybe_finish(entry)


@dataclass(slots=True, eq=False)
class _Command:
    """One NDP command of one entry while the engine holds it: the stages
    of the write-like half (step 1a: ``after_alloc``, ``config_written``)
    and of the read-like half (steps 1b/6: ``deliver``, ``after_stage``,
    ``result_sent``) are its bound methods."""

    engine: "NdpSlsEngine"
    entry: SlsRequestEntry
    done: CompleteFn

    def after_alloc(self) -> None:
        entry = self.entry
        entry.state = SlsState.CONFIG_TRANSFER
        self.engine.controller.dma_to_device(entry.config.encoded_bytes, self.config_written)

    def config_written(self) -> None:
        engine = self.engine
        self.entry.t_config_written = engine.sim.now
        # The write-like command completes once the SSD holds the config;
        # processing continues asynchronously inside the FTL.
        self.done(None, Status.SUCCESS)
        engine._process_config(self.entry)

    def deliver(self) -> None:
        if self.entry.state is SlsState.FAILED:
            self.engine._release_entry(self.entry.request_id)
            self.done(None, Status.INVALID_FIELD)
            return
        self.engine._stage_results(self)

    def after_stage(self) -> None:
        self.engine.controller.dma_to_host(self.entry.config.result_bytes, self.result_sent)

    def result_sent(self) -> None:
        entry = self.entry
        self.engine._release_entry(entry.request_id)
        payload = SlsResultPayload(
            values=entry.scratchpad,
            breakdown=entry.breakdown(),
            flash_pages_read=entry.flash_pages_read,
            page_cache_hits=entry.page_cache_hits,
            emb_cache_hits=entry.emb_cache_hits,
            uncorrectable_pages=entry.uncorrectable_pages,
        )
        self.done(payload, Status.SUCCESS)


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
        self.ftl_core = ftl.cpu.ftl_core
        self.controller = controller
        self.codec = codec
        self.config = config or NdpEngineConfig()
        # Fault-injection crash flag: a down engine takes no new SLS
        # work (the NDP backend falls back to the host read path).
        self.down = False
        self.entries: Dict[int, SlsRequestEntry] = {}
        self.emb_cache = DirectMappedEmbeddingCache(self.config.embcache_slots)
        # Translated pages tag the cache at once and owe it their vectors
        # until their entry's gather; no reader sees one missing.
        self.emb_cache.settle = self.flush_gathers
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
        self.ftl_core.submit(
            self.ftl.cpu.costs.sls_entry_alloc_s, _Command(self, entry, done).after_alloc
        )

    # ------------------------------------------------------------------
    def _process_config(self, entry: SlsRequestEntry) -> None:
        """Reformat inputs, probe the embedding cache, bucket by flash page."""
        entry.state = SlsState.PROCESSING
        cfg = entry.config
        pairs = cfg.pairs
        rows = pairs[:, 0]
        result_ids = pairs[:, 1]

        if cfg.table_rows is not None and rows.size and rows[-1] >= cfg.table_rows:
            self._fail_entry(entry, "input id exceeds table rows")
            return

        # Embedding-cache fast path (step 2a): hits skip flash entirely.
        # One batched probe replaces the per-pair lookup loop.
        if self.emb_cache.slots > 0 and rows.size:
            table_key = entry.table_base_lpn
            hit_mask, hit_vectors = self.emb_cache.probe_many(table_key, rows)
            if hit_vectors is not None:
                entry.emb_cache_hits = len(hit_vectors)
                entry.cache_vectors = hit_vectors
                entry.cache_result_ids = result_ids[hit_mask]
                keep = ~hit_mask
                rows = rows[keep]
                result_ids = result_ids[keep]

        # Bucket misses by page.  The input is sorted by id, so a page
        # starts wherever the page index differs from its neighbour's;
        # a bucket is its page's ``[lo, hi)`` of the entry's pairs, and
        # its record for the rest of its life.
        n = rows.size
        if n:
            entry.ranks = rows
            entry.result_ids = result_ids
            if self.emb_cache.slots > 0:
                # The pages' claims slice these, one list per op.
                entry.rank_ints = rows.tolist()
            page_idx = rows // cfg.rows_per_page
            first = np.empty(n, dtype=bool)
            first[0] = True
            np.not_equal(page_idx[1:], page_idx[:-1], out=first[1:])
            (firsts,) = first.nonzero()
            lpns = page_idx[firsts]
            lpns += entry.table_base_lpn
            bounds = firsts.tolist()
            bounds.append(n)
            lpn_list = lpns.tolist()
            costs = self.ftl.cpu.costs
            row_bytes = cfg.row_bytes
            fixed_s, byte_s = costs.sls_translate_fixed_s, costs.sls_translate_byte_s
            entry.pending_pages.extend(
                [
                    _PageJob(
                        lpn_list[i],
                        bounds[i],
                        bounds[i + 1],
                        self,
                        entry,
                        fixed_s + ((bounds[i + 1] - bounds[i]) * row_bytes) * byte_s,
                    )
                    for i in self._interleave_by_channel(lpns).tolist()
                ]
            )
        entry.pages_total = len(entry.pending_pages)
        entry.cache_work_pending = (
            entry.cache_vectors is not None and len(entry.cache_vectors) > 0
        )

        self._process_chunk(entry, 0)

    def _process_chunk(self, entry: SlsRequestEntry, done_pairs: int) -> None:
        """Pay the per-pair scan cost in chunks so page scheduling and
        translation interleave with processing on the single FTL core."""
        remaining = entry.config.num_inputs - done_pairs
        if remaining <= 0:
            self._finish_processing(entry)
            return
        n = min(PROCESS_CHUNK_PAIRS, remaining)
        cost = n * self.ftl.cpu.costs.sls_pair_s
        entry.cpu_config_process += cost
        # The continuation names a method, never itself: a closure that
        # does is a cycle, entry and all, that only the cyclic collector
        # frees.
        self.ftl_core.submit(
            cost, partial(self._process_chunk, entry, done_pairs + n), priority=1
        )

    def _finish_processing(self, entry: SlsRequestEntry) -> None:
        entry.t_processed = self.sim.now
        entry.state = SlsState.GATHERING
        if entry.pages_total:
            self._feed_queue.append(entry)
        self._accumulate_cache_hits(entry)
        self._pump()
        self._maybe_finish(entry)

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

    def _interleave_by_channel(self, lpns: np.ndarray) -> np.ndarray:
        """Issue order of an entry's pages: round-robin across flash channels.

        The prototype feeds page requests into the FTL's per-channel
        request queues, which drain independently; issuing page-sorted
        requests through a single window would serialize on one die at a
        time (table pages are contiguous within a block).  Interleaving by
        channel reproduces the per-channel-queue parallelism: turn ``k``
        takes the ``k``-th page of every channel that still has one, in
        channel order.  Returns positions into ``lpns``.
        """
        if lpns.size < 2:
            return np.arange(lpns.size)
        geometry = self.ftl.geometry
        pages_per_channel = geometry.pages_per_block * geometry.blocks_per_die * geometry.ways
        # An unmapped page (-1) counts as channel 0.
        channels = np.maximum(self.ftl.mapping.lookup_many(lpns), 0)
        channels //= pages_per_channel
        by_channel = channels.argsort(kind="stable")
        grouped = channels[by_channel]
        turn = np.arange(lpns.size) - grouped.searchsorted(grouped)
        # (turn, channel) is unique per page: one sort of a combined key.
        turn *= int(grouped[-1]) + 1
        turn += grouped
        return by_channel[turn.argsort()]

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
        cost = len(entry.cache_result_ids) * self.ftl.cpu.costs.sls_cache_hit_vec_s
        entry.cpu_translation += cost
        self.ftl_core.submit(
            cost, partial(self._apply_cache_hits, entry), priority=1
        )

    def _apply_cache_hits(self, entry: SlsRequestEntry) -> None:
        # Pages translated before this chunk add to a result id first.
        self._gather(entry)
        scatter_add_vectors(entry.scratchpad, entry.cache_result_ids, entry.cache_vectors)
        entry.cache_work_pending = False
        self._maybe_finish(entry)

    # ------------------------------------------------------------------
    # Page scheduling layer (step 3): RR feed into the page machinery.
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        feed = self._feed_queue
        window = self.config.inflight_pages_window
        submit, sched_s = self.ftl_core.submit, self.ftl.cpu.costs.sls_page_sched_s
        # A submit never runs its callback in this frame, so the count is
        # a local until the loop ends.
        inflight = self._inflight_pages
        while inflight < window and feed:
            entry = feed.popleft()
            pending = entry.pending_pages
            if not pending:
                continue
            page = pending.popleft()
            if pending:
                # Round-robin: move the entry to the back so concurrent SLS
                # requests interleave page by page (fair sharing, Sec 4.1).
                feed.append(entry)
            inflight += 1
            submit(sched_s, page.after_sched)
        self._inflight_pages = inflight

    # ------------------------------------------------------------------
    # Translation, the numeric half (steps 4-5)
    # ------------------------------------------------------------------
    def _gather(self, entry: SlsRequestEntry) -> None:
        """Extract every translated page's rows in one batch and accumulate.

        ``_PageJob.landed`` charges each page's CPU time at its own instant;
        the values are read here, at the first instant anyone can
        observe them: when the entry's work is done, before a cache-hit
        chunk accumulates, and — through :meth:`flush_gathers` — before
        the table's values or layout change and before the embedding
        cache hands out a vector.  Pages accumulate in completion order,
        so every float32 sum is the one page-at-a-time accumulation
        gives; the cache stores a vector only where the page's tag still
        stands, and as no gather outlives a change to the table, every
        entry owing one ``(table, rank)`` fills in the same bytes.
        """
        jobs = entry.gather_pending
        if not jobs:
            return
        entry.gather_pending = []
        cfg = entry.config
        base_lpn = entry.table_base_lpn
        # One index reads every page's pairs ``[lo, hi)``, pages in
        # completion order.
        contents, page_indices, sizes, index = [], [], [], []
        for job in jobs:
            contents.append(job.content)
            page_indices.append(job.lpn - base_lpn)
            sizes.append(job.hi - job.lo)
            index += range(job.lo, job.hi)
        index = np.array(index)
        ranks = entry.ranks[index]
        vectors = extract_vectors_paged(
            contents,
            page_indices,
            sizes,
            ranks,
            # The entry's ranks ascend (the config proved its pairs
            # sorted), so its last bounds every page's: no reduction.
            int(entry.ranks[-1]),
            cfg.vec_dim,
            cfg.rows_per_page,
            cfg.quant,
        )
        scatter_add_segments(entry.scratchpad, entry.result_ids[index], vectors, sizes)
        if self.emb_cache.slots > 0:
            self.emb_cache.fill_many(base_lpn, ranks.tolist(), vectors)

    def flush_gathers(self) -> None:
        """Read now what every translated page still owes its entry.

        Whoever is about to change a table's values or layout under this
        device (an update commit, a layout re-pack) calls this first: a
        page contributes the rows it held at its translate instant.  So
        does every reader of the embedding cache (its ``settle``).
        """
        for entry in self.entries.values():
            self._gather(entry)

    # ------------------------------------------------------------------
    def _maybe_finish(self, entry: SlsRequestEntry) -> None:
        if entry.state is not SlsState.GATHERING or not entry.work_done:
            return
        self._gather(entry)
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

        read = _Command(self, entry, done)
        if entry.state is SlsState.COMPLETE or entry.state is SlsState.FAILED:
            read.deliver()
        else:
            entry.result_waiters.append(read.deliver)

    def _stage_results(self, read: _Command) -> None:
        n_pages = read.entry.config.result_pages(self.ftl.page_bytes)
        self.ftl_core.submit(
            n_pages * self.ftl.cpu.costs.sls_result_page_s, read.after_stage, priority=1
        )

    # ------------------------------------------------------------------
    @property
    def active_requests(self) -> int:
        return len(self.entries)
