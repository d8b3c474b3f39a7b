"""The greedy page-mapped FTL (the Cosmos+ "GreedyFTL" analogue).

Exposes the logical page read/write interface consumed by the NVMe
controller, a preload fast path for installing table images without
simulating millions of programs, and hooks the NDP engine uses to issue
scheduled flash-page reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import zip_longest
from typing import Annotated, Any, Callable, Iterable, Optional

from ..flash.array import FlashArray, PageRead
from ..params import Count, Domain, PosCount, check_domains
from ..sim.kernel import Simulator
from ..sim.resettable import register_resettable
from .blocks import BlockManager, OutOfSpaceError
from .cpu import FtlCpu
from .gc import GarbageCollector
from .mapping import UNMAPPED, MappingTable
from .pagecache import PageCache
from .wear import WearLeveler

__all__ = ["FtlConfig", "GreedyFtl", "PAGE_CACHED", "FLASH_READ", "UNMAPPED_PAGE"]

ReadDone = Callable[[Any, bool], None]  # (content, cache_hit)
Done = Callable[[], None]

# What :meth:`GreedyFtl.ndp_read` did with a page.
PAGE_CACHED, FLASH_READ, UNMAPPED_PAGE = 0, 1, 2


# A page in flight is one record whose bound methods are the stage
# callbacks (a single deferred call is a ``partial``).


@dataclass(slots=True, eq=False)
class _PageRead(PageRead):
    """``read_page``, or ``read_pages`` of a single page (``listed``: the
    caller wants ``[content]`` back, not ``(content, cache_hit)``); a
    miss is its own flash read."""

    ftl: "GreedyFtl"
    lpn: int
    on_done: Callable
    listed: bool
    content: Any = None

    def cached(self) -> None:
        if self.listed:
            self.on_done([self.content])
        else:
            self.on_done(self.content, True)

    def after_cpu(self) -> None:
        ftl = self.ftl
        ftl.flash_page_reads += 1
        ftl.flash.admit(self, self.ppn)

    def landed(self, content: Any) -> None:
        # None means the flash gave up (uncorrectable read): caching
        # it would turn a transient fault into a permanent zero-page.
        if content is not None:
            self.ftl.page_cache.insert(self.lpn, content)
        if self.listed:
            self.on_done([content])
        else:
            self.on_done(content, False)


@dataclass(slots=True, eq=False)
class _PagesRead:
    """``read_pages`` of several pages: one firmware cost for the command,
    then one flash read per mapped miss; ``on_done`` gets every page's
    content once the last read lands."""

    ftl: "GreedyFtl"
    lpns: list[int]
    on_done: Callable[[list[Any]], None]
    contents: list[Any]
    misses: list[int]
    pending: int = 0

    def after_cpu(self) -> None:
        ftl = self.ftl
        lookup, read = ftl.mapping.lookup, ftl.flash.read
        for i in self.misses:
            ppn = lookup(self.lpns[i])
            if ppn != UNMAPPED:
                self.pending += 1
                ftl.flash_page_reads += 1
                read(ppn, partial(self.after_flash, i))
        if not self.pending:
            self.on_done(self.contents)

    def after_flash(self, i: int, content: Any) -> None:
        self.contents[i] = content
        if content is not None:  # don't cache uncorrectable reads
            self.ftl.page_cache.insert(self.lpns[i], content)
        self.pending -= 1
        if not self.pending:
            self.on_done(self.contents)


@dataclass(slots=True, eq=False)
class _PageWrite:
    """A host page write: accept -> allocate (or stall) -> program -> remap."""

    ftl: "GreedyFtl"
    lpn: int
    content: Any
    on_done: Done
    ppn: int = UNMAPPED

    def after_cpu(self) -> None:
        self.ftl._do_write(self)

    def after_program(self) -> None:
        ftl = self.ftl
        ftl.mapping.map(self.lpn, self.ppn)
        ftl.page_cache.insert(self.lpn, self.content)
        self.on_done()
        ftl.gc.maybe_collect(ftl._die_of_ppn(self.ppn))


@dataclass(frozen=True)
class FtlConfig:
    lba_bytes: Annotated[int, Domain(512, integral=True)] = 4096
    overprovision: Annotated[float, Domain(0.0, 1.0, hi_open=True)] = 0.25
    page_cache_pages: Count = 4096        # 64 MiB of 16 KiB pages
    gc_low_watermark: PosCount = 2
    gc_high_watermark: PosCount = 4
    wear_threshold: PosCount = 64

    __post_init__ = check_domains


class GreedyFtl:
    """Page-mapped log-structured FTL over a :class:`FlashArray`."""

    def __init__(
        self,
        sim: Simulator,
        flash: FlashArray,
        cpu: Optional[FtlCpu] = None,
        config: Optional[FtlConfig] = None,
    ):
        self.sim = sim
        self.flash = flash
        self.geometry = flash.geometry
        self.config = config or FtlConfig()
        self.cpu = cpu or FtlCpu(sim)
        logical_pages = int(self.geometry.total_pages * (1.0 - self.config.overprovision))
        self.mapping = MappingTable(self.geometry, max(1, logical_pages))
        self.blocks = BlockManager(self.geometry)
        self.page_cache = PageCache(self.config.page_cache_pages)
        self.gc = GarbageCollector(
            self, self.config.gc_low_watermark, self.config.gc_high_watermark
        )
        self.wear = WearLeveler(self, self.config.wear_threshold)
        # Stats
        self.host_page_reads = 0
        self.host_page_writes = 0
        self.flash_page_reads = 0
        self.write_stalls = 0
        self._erases_since_wear_check = 0
        self._stalled_writes: list[_PageWrite] = []
        # Blocks currently being migrated by GC or wear leveling; the other
        # service must not pick them as victims concurrently.
        self.migrating_blocks: set[int] = set()
        # In-flight program count per block: a block with queued programs
        # must not be erased (the die would reorder erase before program).
        self._inflight_programs: dict[int, int] = {}
        # Optional layout-migration hook (repro.embedding.placement.
        # LayoutMigrator): GC invokes it after each victim reclaim to
        # piggyback heat-driven row re-packing on the relocation.
        self.layout_migrator: Optional[Any] = None
        # One reset surface for every benchmark window (repro.obs):
        # ftl.reset_stats() cascades to page_cache/gc/wear, so only the
        # FTL itself registers.
        register_resettable(self)

    # ------------------------------------------------------------------
    # Derived geometry helpers
    # ------------------------------------------------------------------
    @property
    def page_bytes(self) -> int:
        return self.geometry.page_bytes

    @property
    def lbas_per_page(self) -> int:
        return self.geometry.page_bytes // self.config.lba_bytes

    @property
    def logical_pages(self) -> int:
        return self.mapping.logical_pages

    @property
    def logical_lbas(self) -> int:
        return self.logical_pages * self.lbas_per_page

    def lba_to_lpn(self, lba: int) -> int:
        return lba // self.lbas_per_page

    def lpn_range_for_lbas(self, slba: int, nlb: int) -> range:
        if nlb < 1:
            raise ValueError("nlb must be >= 1")
        first = self.lba_to_lpn(slba)
        last = self.lba_to_lpn(slba + nlb - 1)
        return range(first, last + 1)

    # ------------------------------------------------------------------
    # Foreground read path
    # ------------------------------------------------------------------
    def read_page(self, lpn: int, on_done: ReadDone) -> None:
        """Read logical page ``lpn`` through the page cache.

        ``on_done(content, cache_hit)`` runs after firmware + flash time.
        Unmapped pages return ``None`` content via the fast path.
        """
        read = _PageRead(self, lpn, on_done, False)
        self.host_page_reads += 1
        costs = self.cpu.costs
        hit, read.content = self.page_cache.lookup(read.lpn)
        if not hit:
            read.ppn = self.mapping.lookup(read.lpn)
            if read.ppn != UNMAPPED:
                self.cpu.ftl_core.submit(costs.io_miss_s, read.after_cpu)
                return
        self.cpu.ftl_core.submit(costs.io_hit_s, read.cached)

    def read_pages(self, lpns: list[int], on_done: Callable[[list[Any]], None]) -> None:
        """Read the logical pages of one command; ``on_done(contents)``.

        The firmware pays the full command cost once plus a small per-extra-
        page cost (mapping lookup + channel-queue fill), so large sequential
        commands stream at near-flash bandwidth instead of per-page command
        cost — matching the prototype's ~1.3GB/s sequential envelope.  Each
        page probes the page cache; once the firmware is done, each miss
        that is mapped is one :meth:`FlashArray.read`, issued in page order.
        """
        if not lpns:
            self.sim.call_soon(partial(on_done, []))
            return
        if len(lpns) == 1:
            # read_page, in this frame.
            read = _PageRead(self, lpns[0], on_done, True)
            self.host_page_reads += 1
            costs = self.cpu.costs
            hit, read.content = self.page_cache.lookup(read.lpn)
            if not hit:
                read.ppn = self.mapping.lookup(read.lpn)
                if read.ppn != UNMAPPED:
                    self.cpu.ftl_core.submit(costs.io_miss_s, read.after_cpu)
                    return
            self.cpu.ftl_core.submit(costs.io_hit_s, read.cached)
            return
        self.host_page_reads += len(lpns)
        read = _PagesRead(self, lpns, on_done, [None] * len(lpns), [])
        lookup, contents, misses = self.page_cache.lookup, read.contents, read.misses
        for i, lpn in enumerate(lpns):
            hit, contents[i] = lookup(lpn)
            if not hit:
                misses.append(i)
        costs = self.cpu.costs
        base = costs.io_miss_s if misses else costs.io_hit_s
        self.cpu.ftl_core.submit(
            base + (len(lpns) - 1) * costs.io_extra_page_s, read.after_cpu
        )

    # ------------------------------------------------------------------
    # Foreground write path
    # ------------------------------------------------------------------
    def write_page(self, lpn: int, content: Any, on_done: Done) -> None:
        """Write one full logical page (log-structured allocate + program)."""
        if not 0 <= lpn < self.logical_pages:
            raise IndexError(f"lpn {lpn} out of logical range")
        self.host_page_writes += 1
        self.cpu.ftl_core.submit(
            self.cpu.costs.write_accept_s, _PageWrite(self, lpn, content, on_done).after_cpu
        )

    def _do_write(self, write: _PageWrite) -> None:
        if not self.blocks.can_allocate(reserve=1):
            # Write stall: all dies are down to the GC reserve.  Queue the
            # write and kick collection; it resumes when a block frees up.
            self.write_stalls += 1
            self._stalled_writes.append(write)
            for die in range(self.geometry.dies):
                self.gc.maybe_collect(die)
            return
        write.ppn = self.blocks.allocate_page(reserve=1)
        self.program_page(write.ppn, write.content, write.after_program)

    def program_page(self, ppn: int, content: Any, on_done: Done) -> None:
        """Issue a flash program with per-block in-flight accounting."""
        block_id = ppn // self.geometry.pages_per_block
        self._inflight_programs[block_id] = self._inflight_programs.get(block_id, 0) + 1
        self.flash.program(ppn, content, partial(self._program_done, block_id, on_done))

    def _program_done(self, block_id: int, on_done: Done) -> None:
        count = self._inflight_programs.get(block_id, 0) - 1
        if count <= 0:
            self._inflight_programs.pop(block_id, None)
        else:
            self._inflight_programs[block_id] = count
        on_done()

    def block_erasable(self, block_id: int) -> bool:
        """True when no programs are queued/active against the block."""
        return self._inflight_programs.get(block_id, 0) == 0

    def notify_blocks_released(self) -> None:
        """Resume stalled writes after GC/wear leveling frees blocks."""
        while self._stalled_writes and self.blocks.can_allocate(reserve=1):
            self._do_write(self._stalled_writes.pop(0))

    def _die_of_ppn(self, ppn: int) -> int:
        addr = self.geometry.addr(ppn)
        return self.geometry.die_index(addr.channel, addr.way)

    # ------------------------------------------------------------------
    # NDP hooks: scheduled flash page reads without the IO-command
    # overhead.  The SLS scheduling layer pays its own (cheaper) per-page
    # CPU cost and calls these to touch flash directly, exploiting
    # internal parallelism.
    # ------------------------------------------------------------------
    def ndp_read(self, read: PageRead, lpn: int) -> int:
        """Read logical page ``lpn`` into ``read``: its ``landed(content)``
        runs in this frame with the page cache's copy (``PAGE_CACHED``),
        when the flash read's data is on-chip (``FLASH_READ``, the one
        outcome that reads flash), or with ``None`` at the next event for
        an unmapped page (``UNMAPPED_PAGE``).  The page cache is probed
        without recency or statistics."""
        cached = self.page_cache.entries
        if lpn in cached:
            read.landed(cached[lpn])
            return PAGE_CACHED
        ppn = self.mapping.l2p[lpn]
        if ppn == UNMAPPED:
            self.sim.call_soon(partial(read.landed, None))
            return UNMAPPED_PAGE
        self.flash_page_reads += 1
        self.flash.admit(read, ppn)
        return FLASH_READ

    def ndp_read_mapped_page(self, lpn: int, on_done: Callable[[Any], None]) -> bool:
        """``on_done(content)`` with the page's content; returns whether a
        flash read was issued for it (an unmapped page is ``None`` without
        one).  The callback form of :meth:`ndp_read`, for a caller that is
        not its own :class:`PageRead`; it does not probe the page cache."""
        ppn = self.mapping.lookup(lpn)
        if ppn == UNMAPPED:
            self.sim.call_soon(lambda: on_done(None))
            return False
        self.flash_page_reads += 1
        self.flash.read(ppn, on_done)
        return True

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def wear_check(self) -> None:
        """Called by GC after erases; rate-limits wear-leveling scans."""
        self._erases_since_wear_check += 1
        if self._erases_since_wear_check >= 8:
            self._erases_since_wear_check = 0
            self.wear.check()

    def trim_page(self, lpn: int) -> None:
        self.mapping.unmap(lpn)
        self.page_cache.invalidate(lpn)

    # ------------------------------------------------------------------
    # Preload fast path (no simulated time)
    # ------------------------------------------------------------------
    def preload_pages(self, lpn_start: int, contents: Iterable[Any]) -> int:
        """Install ``contents`` at consecutive LPNs; returns pages installed.

        Reserves whole blocks, installs content directly into the flash
        store and mapping.  Used to stand in for the one-time table load
        the paper performs before its measurements.
        """
        contents = list(contents)
        if not contents:
            return 0
        pages_needed = len(contents)
        if lpn_start + pages_needed > self.logical_pages:
            raise ValueError("preload exceeds logical space")
        blocks_needed = math.ceil(pages_needed / self.geometry.pages_per_block)
        # Fill the blocks in the order they were taken: round by round.
        rounds = zip_longest(*self.blocks.reserve_blocks(blocks_needed))
        idx = 0
        for block_id in (b for row in rounds for b in row if b is not None):
            base_ppn = self.geometry.first_ppn_of_block(block_id)
            for page in range(self.geometry.pages_per_block):
                if idx >= pages_needed:
                    break
                ppn = base_ppn + page
                self.flash.store.install(ppn, contents[idx])
                self.mapping.map(lpn_start + idx, ppn)
                idx += 1
        return idx

    def preload_region(self, lpn_start: int, region: Any) -> int:
        """Install a virtual page region (e.g. an embedding table image).

        ``region`` provides ``page_count`` and ``page_content(offset)``.
        Consecutive logical pages are striped across dies exactly as the
        log-structured write path would place them, so sequential reads
        exploit full channel parallelism.  Each die's share is a run: one
        ``install_region`` over its blocks (an O(1) entry each) and one
        ``map_strided`` (a strided L2P slice, a P2L row per block); only
        numpy touches individual pages and nothing sorts them.  (Per die,
        not per table, so temporaries stay one die's share: 0.08 MB for a
        409,600-page table on the benchmark device, where a whole-table
        int64 run took 12.9 MB and raised the 4-host cell's peak RSS from
        90 to 102 MB.  On that cell, 2-vCPU Xeon, set-up fell from 0.17 s
        with per-die (lpn, ppn) pairs to 0.055 s.)
        """
        pages_needed = int(region.page_count)
        if pages_needed <= 0:
            return 0
        if lpn_start + pages_needed > self.logical_pages:
            raise ValueError("preload exceeds logical space")
        per_block = self.geometry.pages_per_block
        dies = self.geometry.dies
        # Stripe across every die the way the write path would: each die
        # serves ~P/D pages, so small tables still occupy one (partially
        # filled) block on every die and sequential reads hit all channels.
        stripe_dies = min(dies, pages_needed)
        pages_per_die = math.ceil(pages_needed / stripe_dies)
        blocks_needed = stripe_dies * math.ceil(pages_per_die / per_block)
        # The dies that gave blocks, in die order: the d-th of them serves
        # logical pages d, d+D, d+2D, ...
        per_die_blocks = [
            (die, blocks)
            for die, blocks in enumerate(self.blocks.reserve_blocks(blocks_needed))
            if blocks
        ]
        n_dies = len(per_die_blocks)
        for d_idx, (die, blocks) in enumerate(per_die_blocks):
            die_pages = (pages_needed - d_idx + n_dies - 1) // n_dies
            die_blocks = blocks[: -(-die_pages // per_block)]
            if len(die_blocks) * per_block < die_pages:
                raise OutOfSpaceError(
                    f"die {die} reserved too few blocks for preload "
                    f"({len(die_blocks) * per_block}/{die_pages} pages)"
                )
            self.flash.store.install_region(die_blocks, region, d_idx, stride=n_dies)
            self.mapping.map_strided(
                lpn_start + d_idx, n_dies, die_blocks, die_pages
            )
        return pages_needed

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Clear the request counters benchmarks read (not device state)."""
        self.host_page_reads = 0
        self.host_page_writes = 0
        self.flash_page_reads = 0
        self.write_stalls = 0
        self.page_cache.reset_stats()
        self.gc.reset_stats()
        self.wear.reset_stats()

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        return self.cpu.idle and self.flash.idle
