"""Live embedding updates under serving load.

Production recommendation models retrain continuously: embedding rows
are republished while the serving fleet keeps answering reads.  This
module adds that write path on top of the serving stack with
*commit-at-issue* semantics:

* **Commit** — at the simulated instant an update batch is applied, the
  shared canonical table data (an
  :class:`~repro.embedding.data.UpdatableTableData` overlay installed by
  :func:`make_model_updatable`) is mutated and every *materialized*
  vector cache is fixed synchronously: host-side
  :class:`~repro.embedding.caches.SetAssociativeLru` rows are
  invalidated, NDP :class:`~repro.embedding.caches.StaticPartitionCache`
  rows are written through (membership is pinned, so invalidation would
  change hit accounting), and the device-side
  :class:`~repro.core.embcache.DirectMappedEmbeddingCache` drops the
  rows.  Everything else in the stack — flash page images, the FTL page
  cache, NDP translation, SSD-side extraction — reads *through*
  ``table.get_rows`` (virtual :class:`TablePageContent` pages), so a
  written row's next read returns the new value on every backend with no
  further work.  The NDP engine reads once per entry, not per page, so
  just *before* the mutation it is told to read what its translated
  pages still owe (:meth:`~repro.core.engine.NdpSlsEngine.flush_gathers`):
  a page contributes the rows it held at its translate instant.

* **Device write** — the dirty table pages are then rewritten through
  the real SSD write path (driver → NVMe WRITE carrying a
  :class:`~repro.nvme.payload.PageImagePayload` → FTL log-structured
  allocate/program).  This costs *timing only* — sustained updates
  consume free blocks, age the device and wake ``repro.ftl.gc``, whose
  page migrations steal die time from foreground reads — which is
  exactly the interference this module exists to measure.  Throttling or
  deferring the writes therefore never breaks read-your-writes.

Two write-scheduling policies:

* ``"interleave"`` (naive): every dirty-page write is issued at the
  commit instant, competing head-on with foreground reads.
* ``"throttled"``: per-device off-peak batching — dirty pages queue
  while the owning server has reads in flight (up to ``max_defer_s``
  per page) or a previous burst is outstanding, then flush as one
  burst into the read-idle gap.  Bursts keep update data unmixed with
  concurrent GC relocations inside the active blocks, which is what
  keeps later GC cheap; see ``age_device`` and ``BENCH_updates.json``.

See ``docs/SERVING.md`` ("Live updates") for the knob table and a
worked GC-interference example.
"""

from __future__ import annotations

from collections import deque
from typing import Annotated, Dict, Iterable, List, Optional, Union

import numpy as np

from ..embedding.backends import DramSlsBackend, NdpSlsBackend, SsdSlsBackend
from ..embedding.data import UpdatableTableData
from ..embedding.table import EmbeddingTable, TablePageContent
from ..nvme.payload import PageImagePayload
from ..params import Count, Domain, NonNeg, Pos, PosCount, checked
from .server import InferenceServer

__all__ = [
    "make_model_updatable",
    "EmbeddingUpdateEngine",
    "age_device",
]

UPDATE_POLICIES = ("interleave", "throttled")


def make_model_updatable(model) -> None:
    """Wrap every table of ``model`` in an updatable overlay, in place.

    Must run *before* the model is registered (or placed on a cluster):
    replicas share the primary's data object and row shards read through
    their parent, so wrapping the canonical instance first propagates
    the overlay to every copy the serving layer later creates.
    Idempotent.
    """
    for table in model.tables.values():
        if not isinstance(table.data, UpdatableTableData):
            table.data = UpdatableTableData(table.data)


class _DeviceWriteQueue:
    """Per-device update write lane (burst-gated for ``throttled``)."""

    __slots__ = ("driver", "queue", "inflight", "last_issue", "recheck_scheduled")

    def __init__(self, driver):
        self.driver = driver
        self.queue: deque = deque()
        self.inflight = 0
        self.last_issue = -float("inf")
        self.recheck_scheduled = False


class _WriteItem:
    __slots__ = ("slba", "nlb", "payload", "server", "enqueued_at")

    def __init__(self, slba: int, nlb: int, payload, server, enqueued_at: float):
        self.slba = slba
        self.nlb = nlb
        self.payload = payload
        self.server = server
        self.enqueued_at = enqueued_at


class EmbeddingUpdateEngine:
    """Applies embedding update batches against one or more servers.

    ``servers`` is one :class:`InferenceServer` or a list of them (a
    cluster sharing one sim kernel).  An update batch commits once into
    the shared canonical data, fans out cache coherence to every server
    holding the model, and enqueues the dirty-page device writes under
    the selected scheduling ``policy``.
    """

    @checked
    def __init__(
        self,
        servers: Union[InferenceServer, Iterable[InferenceServer]],
        policy: str = "interleave",
        min_gap_s: NonNeg = 0.0,
        defer_s: Pos = 200e-6,
        max_defer_s: NonNeg = 5e-3,
    ):
        if isinstance(servers, InferenceServer):
            servers = [servers]
        self.servers: List[InferenceServer] = list(servers)
        if not self.servers:
            raise ValueError("need at least one server")
        if policy not in UPDATE_POLICIES:
            raise ValueError(f"policy must be one of {UPDATE_POLICIES}")
        self.policy = policy
        self.min_gap_s = min_gap_s
        self.defer_s = defer_s
        self.max_defer_s = max_defer_s
        self.sim = self.servers[0].sim
        # Engine-wide gauges (per-server mirrors live on ServingStats).
        self.batches_applied = 0
        self.rows_applied = 0
        self.invalidations = 0
        self.partition_writes = 0
        self.pages_written = 0
        self.writes_completed = 0
        self.writes_deferred = 0
        self.write_latencies: List[float] = []
        self._lanes: Dict[int, _DeviceWriteQueue] = {}

    # ------------------------------------------------------------------
    # Commit + coherence
    # ------------------------------------------------------------------
    def apply_update(
        self,
        model_name: str,
        table_name: str,
        rows: np.ndarray,
        values: np.ndarray,
    ) -> int:
        """Commit one update batch; returns the distinct rows written.

        Raises if no server holds the model or its tables were not made
        updatable (:func:`make_model_updatable`) before registration.
        """
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float32)
        holders = [s for s in self.servers if model_name in s.models]
        if not holders:
            raise KeyError(f"model {model_name!r} not registered on any server")
        canonical = holders[0].models[model_name].tables[table_name]
        data = canonical.data
        if not isinstance(data, UpdatableTableData):
            raise TypeError(
                f"table {table_name!r} is not updatable; call "
                f"make_model_updatable(model) before registering it"
            )
        # 0) An NDP page translated before this instant contributes its
        #    pre-commit rows: the engines read what they still owe now.
        for server in holders:
            for device in server.system.devices:
                device.ndp.flush_gathers()
        # 1) Commit once into the shared canonical data: every replica and
        #    row shard reads through this object from the same instant.
        distinct = data.apply(rows, values)
        self.batches_applied += 1
        self.rows_applied += distinct
        tracer = self.sim.tracer
        commit_ctx = (
            tracer.span(
                "update.commit",
                model=model_name,
                table=table_name,
                rows=int(distinct),
            )
            if tracer is not None
            else None
        )
        if commit_ctx is not None:
            commit_ctx.__enter__()
        try:
            # 2) Coherence + device writes per server holding the model.
            seen_tables: Dict[int, None] = {}
            for server in holders:
                # Every placed piece of the table that holds any of the
                # rows, with the rows as that piece numbers them.
                for worker in server.workers[model_name]:
                    for backend, local_rows in worker.stage.route(table_name, rows):
                        self._cohere_backend(backend, local_rows)
                        table = backend.table
                        if table.attached and id(table) not in seen_tables:
                            seen_tables[id(table)] = None
                            self._enqueue_page_writes(server, table, local_rows)
        finally:
            if commit_ctx is not None:
                commit_ctx.__exit__(None, None, None)
        return distinct

    def _cohere_backend(self, backend, local_rows: np.ndarray) -> None:
        """Fix the materialized caches a backend fronts.

        The DRAM backend and every read-through layer (flash images, FTL
        page cache, SSD extraction) need nothing: they gather from
        ``table.get_rows`` at op time.  (NDP translate reads through too,
        but per entry — ``apply_update`` flushed it before the commit.)
        """
        if isinstance(backend, DramSlsBackend):
            return
        if isinstance(backend, SsdSlsBackend):
            if backend.host_cache is not None:
                dropped = backend.host_cache.invalidate_many(local_rows)
                self.invalidations += dropped
            return
        if isinstance(backend, NdpSlsBackend):
            table = backend.table
            if backend.partition is not None:
                written = backend.partition.update_rows(
                    local_rows, table.get_rows(local_rows)
                )
                self.partition_writes += written
            if table.attached:
                device = table.device
                table_key = table.base_lba // device.ftl.lbas_per_page
                # The device vector cache keys by internal storage rank;
                # translate external update ids through the table layout.
                dropped = device.ndp.emb_cache.invalidate_many(
                    table_key, table.storage_ids(local_rows)
                )
                self.invalidations += dropped

    # ------------------------------------------------------------------
    # Device write path
    # ------------------------------------------------------------------
    def _enqueue_page_writes(
        self, server: InferenceServer, table: EmbeddingTable, local_rows: np.ndarray
    ) -> None:
        # Dirty pages are a placement question: translate the updated
        # external ids to storage ranks so heat-packed tables rewrite
        # the pages that actually hold them.
        pages = np.unique(table.storage_ids(local_rows) // table.rows_per_page)
        n_pages = table.spec.table_pages(table.page_bytes)
        pages = pages[pages < n_pages]
        if pages.size == 0:
            return
        driver = server.system.driver_for(table.device)
        lane = self._lanes.get(id(driver))
        if lane is None:
            lane = self._lanes[id(driver)] = _DeviceWriteQueue(driver)
        lbas_per_page = table.device.ftl.lbas_per_page
        page_bytes = table.page_bytes
        now = self.sim.now
        for page in pages.tolist():
            item = _WriteItem(
                slba=table.base_lba + page * lbas_per_page,
                nlb=lbas_per_page,
                payload=PageImagePayload(
                    [TablePageContent(table, page)], page_bytes
                ),
                server=server,
                enqueued_at=now,
            )
            lane.queue.append(item)
            self.pages_written += 1
            server.stats.update_pages_written += 1
        self._pump(lane)

    def _pump(self, lane: _DeviceWriteQueue) -> None:
        if self.policy == "interleave":
            # Naive: everything goes out the moment it is dirty.
            while lane.queue:
                self._issue(lane, lane.queue.popleft())
            return
        # Throttled: serialized lane with gap + read-idle deferral.
        if lane.inflight or not lane.queue:
            return
        now = self.sim.now
        item = lane.queue[0]
        gap_wait = lane.last_issue + self.min_gap_s - now
        if gap_wait > 1e-15:
            self._schedule_recheck(lane, gap_wait)
            return
        past_deadline = now >= item.enqueued_at + self.max_defer_s
        if item.server.stats.inflight > 0 and not past_deadline:
            self.writes_deferred += 1
            self._schedule_recheck(lane, self.defer_s)
            return
        # Off-peak batch drain: flush the whole backlog as one burst.
        # Bursts fill active blocks with update data *unmixed* with GC
        # relocations (trickled writes interleave with GC's own moves,
        # seeding future victims with extra valid pages), and while the
        # burst is in flight newly-committed pages queue instead of
        # piling onto the churning device.
        while lane.queue:
            self._issue(lane, lane.queue.popleft())

    def _schedule_recheck(self, lane: _DeviceWriteQueue, delay: float) -> None:
        if lane.recheck_scheduled:
            return
        lane.recheck_scheduled = True

        def recheck() -> None:
            lane.recheck_scheduled = False
            self._pump(lane)

        self.sim.schedule(delay, recheck)

    def _issue(self, lane: _DeviceWriteQueue, item: _WriteItem) -> None:
        lane.inflight += 1
        lane.last_issue = self.sim.now
        t0 = self.sim.now
        tracer = self.sim.tracer
        write_span = None
        if tracer is not None:
            write_span = tracer.begin(
                "update.write", slba=item.slba, nlb=item.nlb
            )

        def on_done(cpl) -> None:
            if not cpl.ok:
                raise RuntimeError(f"update write failed: {cpl.status}")
            if write_span is not None:
                tracer.end(write_span)
            lane.inflight -= 1
            latency = self.sim.now - t0
            self.writes_completed += 1
            self.write_latencies.append(latency)
            item.server.stats.update_writes_completed += 1
            self._pump(lane)

        if write_span is not None:
            tracer.push(write_span)
            try:
                lane.driver.write(item.slba, item.nlb, item.payload, on_done)
            finally:
                tracer.pop()
        else:
            lane.driver.write(item.slba, item.nlb, item.payload, on_done)

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when no update write is queued or in flight."""
        return all(
            not lane.queue and lane.inflight == 0 for lane in self._lanes.values()
        )

    def summary(self) -> Dict[str, float]:
        mean_write_ms = (
            1e3 * sum(self.write_latencies) / len(self.write_latencies)
            if self.write_latencies
            else 0.0
        )
        return {
            "update_batches": float(self.batches_applied),
            "update_rows": float(self.rows_applied),
            "update_invalidations": float(self.invalidations),
            "update_partition_writes": float(self.partition_writes),
            "update_pages_written": float(self.pages_written),
            "update_writes_completed": float(self.writes_completed),
            "update_writes_deferred": float(self.writes_deferred),
            "mean_update_write_ms": mean_write_ms,
            "update_policy_throttled": float(self.policy == "throttled"),
        }


# ----------------------------------------------------------------------
# Device aging
# ----------------------------------------------------------------------
class _FillerRegion:
    """Constant-content virtual region standing in for cold resident data."""

    def __init__(self, page_count: int, page_bytes: int):
        self.page_count = page_count
        self._page = np.zeros(page_bytes, dtype=np.uint8)

    def page_content(self, offset: int) -> Optional[np.ndarray]:
        if not 0 <= offset < self.page_count:
            return None
        return self._page


@checked
def age_device(
    system,
    device=None,
    fill_fraction: Annotated[float, Domain(0.0, 1.0, lo_open=True)] = 0.92,
    target_free_per_die: Optional[Count] = None,
    max_overwrites: Optional[Count] = None,
    batch: PosCount = 64,
    reset_stats: bool = True,
) -> Dict[str, float]:
    """Age ``device`` so sustained writes immediately contend with GC.

    Fresh devices absorb write bursts from their deep free pool and show
    no read-tail interference; the paper's steady state is a device whose
    logical space is mostly resident.  This helper (1) maps
    ``fill_fraction`` of the *remaining* logical space with filler pages
    (cold valid data GC must migrate around), then (2) overwrites filler
    pages with a block-spreading stride until every die's free pool is
    down to ``target_free_per_die`` blocks (default: the GC high
    watermark — the steady state GC restores to, so any further write
    burst re-enters collection immediately), running the simulator as GC
    churns.  Call it *after* attaching the tables under test — it
    consumes the rest of the drive.

    Returns an aging report; by default FTL/GC/wear gauges are reset so
    subsequent measurements start clean.
    """
    device = device if device is not None else system.device
    ftl = device.ftl
    sim = system.sim
    if target_free_per_die is None:
        target_free_per_die = ftl.gc.high_watermark
    # 1) Fill: claim an aligned region covering most of the free logical
    #    space.  Alignment can eat a chunk, so shrink until it fits.
    page_bytes = ftl.page_bytes
    lbas_per_page = ftl.lbas_per_page
    n_fill = int(fill_fraction * ftl.logical_pages)
    base_lba = None
    while n_fill > 0:
        try:
            base_lba = device.allocate_table_region(n_fill)
            break
        except ValueError:
            n_fill = int(n_fill * 0.95) - 1
    if base_lba is None or n_fill <= 0:
        raise ValueError("no logical space left to age the device")
    region = _FillerRegion(n_fill, page_bytes)
    base_lpn = base_lba // lbas_per_page
    ftl.preload_region(base_lpn, region)
    # 2) Overwrite burst: stride-spread rewrites invalidate pages across
    #    *many* blocks, so GC victims keep a realistic valid-page mix
    #    (expensive migrations) instead of conveniently empty blocks.
    dies = ftl.geometry.dies
    stride = max(1, (n_fill // 3) | 1)
    while n_fill % stride == 0 and stride > 1:
        stride -= 2
    if max_overwrites is None:
        # Enough to drain the remaining free pool twice over; the
        # free-pool target below terminates the loop far earlier.
        max_overwrites = (
            2 * ftl.blocks.total_free_blocks * ftl.geometry.pages_per_block + batch
        )
    overwrites = 0
    cursor = 0

    def min_free() -> int:
        return min(ftl.blocks.free_blocks_in_die(d) for d in range(dies))

    while min_free() > target_free_per_die and overwrites < max_overwrites:
        n = min(batch, max_overwrites - overwrites)
        pending = {"n": n}

        def one_done() -> None:
            pending["n"] -= 1

        for _ in range(n):
            lpn = base_lpn + cursor
            cursor = (cursor + stride) % n_fill
            ftl.write_page(lpn, region.page_content(0), one_done)
        overwrites += n
        sim.run_until(lambda: pending["n"] == 0 and ftl.idle, sim.now + 300.0)
        if pending["n"] > 0:
            # Writes wedged in a GC stall (device effectively full);
            # further aging would deadlock, stop here.
            break

    report = {
        "filler_pages": float(n_fill),
        "overwrites": float(overwrites),
        "min_free_blocks_per_die": float(min_free()),
        "gc_runs_during_aging": float(ftl.gc.runs),
        "gc_pages_moved_during_aging": float(ftl.gc.pages_moved),
    }
    if reset_stats:
        ftl.reset_stats()
    return report
