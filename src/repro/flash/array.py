"""Flash channel and array simulation.

Each channel owns one bus (:class:`~repro.sim.resources.Server`) shared by
``ways`` dies.  Reads occupy the die for tR then the bus for the page
transfer; programs occupy the bus first (data in) then the die for tPROG;
erases occupy the die only.  With >=2 ways per channel, sustained read
throughput is bus-bound at ``page_bytes / channel_bw`` per page — the 10K
IOPS/channel figure from the paper.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, List, Optional

import numpy as np

from ..sim.kernel import SimError, Simulator
from ..sim.resources import Server
from ..sim.stats import Accumulator
from .geometry import FlashGeometry, PhysAddr
from .reliability import ReadRetryModel, ReliabilityConfig, UncorrectableError
from .store import FlashStore
from .timing import FlashTiming

__all__ = ["FlashChannel", "FlashArray"]

ReadCallback = Callable[[Any], None]
DoneCallback = Callable[[], None]


def _die_noop() -> None:
    # Aggregate die-chain occupancy job: per-page work is scheduled
    # separately; this job only holds the server.
    pass


# One record per queued page: its bound methods are the stage callbacks,
# and as it never refers to itself the last stage returning frees it.


@dataclass(slots=True, eq=False)
class _PageRead:
    """Die phase (tR) -> bus phase (transfer) -> data on-chip."""

    array: "FlashArray"
    bus: Server
    xfer: float  # as the channel had it at submit
    ppn: int
    failed: bool
    start: float
    on_done: ReadCallback

    def die_done(self) -> None:
        self.bus.submit(self.xfer, self.bus_done)

    def bus_done(self) -> None:
        array = self.array
        array.read_latency.add(array.sim.now - self.start)
        self.on_done(None if self.failed else array.store.read(self.ppn))


@dataclass(slots=True, eq=False)
class _PageProgram:
    """Bus phase (data in) -> die phase (tPROG) -> store updated."""

    array: "FlashArray"
    channel: "FlashChannel"
    die: Server
    ppn: int
    content: Any
    on_done: DoneCallback

    def bus_done(self) -> None:
        # tPROG is the channel's when the data has arrived, not at submit.
        self.die.submit(self.channel.timing.t_program_s, self.die_done)

    def die_done(self) -> None:
        self.array.store.program(self.ppn, self.content)
        self.on_done()


class FlashChannel:
    """One channel: a shared bus and ``ways`` independent dies."""

    def __init__(
        self,
        sim: Simulator,
        channel_id: int,
        ways: int,
        timing: FlashTiming,
        page_bytes: int,
    ):
        self.sim = sim
        self.channel_id = channel_id
        self.page_bytes = page_bytes
        self.timing = timing
        self.bus = Server(sim, capacity=1, name=f"ch{channel_id}.bus")
        self.dies = [
            Server(sim, capacity=1, name=f"ch{channel_id}.die{w}") for w in range(ways)
        ]
        self.reads = 0
        self.programs = 0
        self.erases = 0

    @property
    def timing(self) -> FlashTiming:
        return self._timing

    @timing.setter
    def timing(self, timing: FlashTiming) -> None:
        """Set the timing and the two per-page figures derived from it
        (at construction, and when fault injection slows the device)."""
        self._timing = timing
        self.read_unit_s = timing.t_cmd_s + timing.t_read_s
        self.page_xfer_s = timing.t_cmd_s + timing.transfer_time(self.page_bytes)

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        return self.bus.idle and all(d.idle for d in self.dies)

    @property
    def inflight(self) -> int:
        busy = self.bus.busy + self.bus.queue_length
        for die in self.dies:
            busy += die.busy + die.queue_length
        return busy


class FlashArray:
    """The full NAND array: geometry + store + per-channel simulation."""

    def __init__(
        self,
        sim: Simulator,
        geometry: Optional[FlashGeometry] = None,
        timing: Optional[FlashTiming] = None,
        reliability: Optional[ReliabilityConfig] = None,
    ):
        self.sim = sim
        self.geometry = geometry or FlashGeometry()
        self.timing = timing or FlashTiming()
        self.store = FlashStore(self.geometry)
        self.reliability = ReadRetryModel(reliability or ReliabilityConfig())
        self.channels: List[FlashChannel] = [
            FlashChannel(sim, c, self.geometry.ways, self.timing, self.geometry.page_bytes)
            for c in range(self.geometry.channels)
        ]
        self.read_latency = Accumulator()
        self.uncorrectable_reads = 0

    # ------------------------------------------------------------------
    def read(self, ppn: int, on_done: ReadCallback) -> None:
        """Read page ``ppn``; ``on_done(content)`` fires when data is on-chip.

        Uncorrectable reads (reliability model) deliver ``None`` after the
        full retry sequence, as a real drive would report a media error.
        """
        geometry = self.geometry
        if not 0 <= ppn < geometry.total_pages:
            raise ValueError(f"ppn {ppn} out of range [0, {geometry.total_pages})")
        # geometry.addr(ppn)'s channel and way, without the PhysAddr.
        die = ppn // geometry.pages_per_die
        try:
            retries = self.reliability.retries_for_read()
            failed = False
        except UncorrectableError:
            retries = self.reliability.config.max_read_retries
            failed = True
            self.uncorrectable_reads += 1
        channel = self.channels[die // geometry.ways]
        channel.reads += 1
        read = _PageRead(
            self, channel.bus, channel.page_xfer_s, ppn, failed, self.sim.now, on_done
        )
        # Each retry costs another command + tR on the die before the
        # data transfer.
        channel.dies[die % geometry.ways].submit(
            (1 + retries) * channel.read_unit_s, read.die_done
        )

    def read_many(
        self, ppns: "np.ndarray", on_page: Callable[[int, Any], None]
    ) -> None:
        """Batch read: ``on_page(i, content)`` fires as page ``i`` lands on-chip.

        Timing-equivalent to calling :meth:`read` once per page at this
        instant (the retry draws happen in page order, so the reliability
        RNG stream matches): each die serializes its pages' tR phases and
        every completed tR claims the shared channel bus for the data
        transfer.  All die-phase completion times are computed up front —
        a k-way virtual merge reproduces the event heap's exact ordering,
        including same-instant ties — then bulk-pushed in one
        :meth:`Simulator.schedule_batch` pass, with a single aggregate
        occupancy job per die standing in for its page chain.  If any
        target die is mid-service the batch falls back to per-page issue
        (the queue interleaving is live state that cannot be precomputed).
        """
        n = len(ppns)
        if n == 0:
            return
        if n == 1:
            self.read(int(ppns[0]), lambda content: on_page(0, content))
            return
        ppns = np.ascontiguousarray(ppns, dtype=np.int64)
        geometry = self.geometry
        if ppns.min() < 0 or ppns.max() >= geometry.total_pages:
            raise ValueError("ppn out of range")
        sim = self.sim
        start = sim.now
        store = self.store
        dies = (ppns // geometry.pages_per_block) // geometry.blocks_per_die
        retries = [0] * n
        failed = [False] * n
        max_retries = self.reliability.config.max_read_retries
        for i in range(n):
            try:
                retries[i] = self.reliability.retries_for_read()
            except UncorrectableError:
                retries[i] = max_retries
                failed[i] = True
                self.uncorrectable_reads += 1

        def make_finish(i: int) -> DoneCallback:
            ppn = int(ppns[i])
            if failed[i]:
                def finish_failed() -> None:
                    self.read_latency.add(sim.now - start)
                    on_page(i, None)
                return finish_failed

            def finish() -> None:
                self.read_latency.add(sim.now - start)
                on_page(i, store.read(ppn))

            return finish

        ways = geometry.ways
        die_ids = dies.tolist()
        # Page indices per die, in arrival (lpn) order.
        per_die: dict[int, list[int]] = {}
        for i, d in enumerate(die_ids):
            per_die.setdefault(d, []).append(i)

        die_servers = {
            d: self.channels[d // ways].dies[d % ways] for d in per_die
        }
        if any(not server.idle for server in die_servers.values()):
            # Live queue state on a die: issue per page, exactly as read().
            unit = self.timing.t_cmd_s + self.timing.t_read_s
            xfer = self.timing.t_cmd_s + self.timing.transfer_time(
                self.geometry.page_bytes
            )
            for i, d in enumerate(die_ids):
                channel = self.channels[d // ways]
                channel.reads += 1
                bus = channel.bus
                finish = make_finish(i)
                channel.dies[d % ways].submit(
                    (1 + retries[i]) * unit,
                    lambda bus=bus, finish=finish: bus.submit(xfer, finish),
                )
            return

        # All dies idle: every chain starts now.  Virtual-merge the die
        # timelines to recover the exact (time, seq) order the per-page
        # event cascade would produce: the first page of each die is
        # scheduled at submit time in lpn order, each later page when its
        # predecessor completes.
        unit = self.timing.t_cmd_s + self.timing.t_read_s
        merged_times: list[float] = []
        merged_pages: list[int] = []
        heap: list[tuple[float, int, int, int]] = []  # (time, vseq, die, pos)
        for d, pages in per_die.items():
            first = pages[0]
            heap.append((start + (1 + retries[first]) * unit, first, d, 0))
        heapq.heapify(heap)
        vseq = n  # later pages schedule strictly after the initial wave
        while heap:
            t, _s, d, pos = heapq.heappop(heap)
            pages = per_die[d]
            merged_times.append(t)
            merged_pages.append(pages[pos])
            if pos + 1 < len(pages):
                nxt = pages[pos + 1]
                heapq.heappush(heap, (t + (1 + retries[nxt]) * unit, vseq, d, pos + 1))
                vseq += 1

        callbacks: list[Callable[[], None]] = []
        for i in merged_pages:
            channel = self.channels[die_ids[i] // ways]
            channel.reads += 1
            callbacks.append(
                lambda bus=channel.bus, xfer=channel.page_xfer_s, finish=make_finish(i): bus.submit(
                    xfer, finish
                )
            )
        sim.schedule_batch(merged_times, callbacks)
        # One aggregate occupancy job per die: later arrivals queue behind
        # the whole chain, exactly as behind its individual jobs.
        for d, pages in per_die.items():
            server = die_servers[d]
            # Sequential accumulation matches the per-page event cascade's
            # float associativity; the on_start hook pins the server-free
            # instant to exactly the last page's completion.
            last_end = start
            for i in pages:
                last_end = last_end + (1 + retries[i]) * unit
            total = sum((1 + retries[i]) * unit for i in pages)
            server.jobs_started += len(pages) - 1
            server.jobs_completed += len(pages) - 1
            server.submit(total, _die_noop, on_start=lambda end=last_end: end)

    def program(self, ppn: int, content: Any, on_done: DoneCallback) -> None:
        """Program ``content`` into page ``ppn`` (store updated at completion)."""
        addr = self.geometry.addr(ppn)
        channel = self.channels[addr.channel]
        channel.programs += 1
        channel.bus.submit(
            channel.page_xfer_s,
            _PageProgram(self, channel, channel.dies[addr.way], ppn, content, on_done).bus_done,
        )

    def erase(self, block_id: int, on_done: DoneCallback) -> None:
        channel_id, way, _block = self.geometry.block_addr(block_id)
        channel = self.channels[channel_id]
        channel.erases += 1
        timing = channel.timing
        channel.dies[way].submit(
            timing.t_cmd_s + timing.t_erase_s, partial(self._erased, block_id, on_done)
        )

    def _erased(self, block_id: int, on_done: DoneCallback) -> None:
        self.store.erase_block(block_id)
        on_done()

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        return all(ch.idle for ch in self.channels)

    @property
    def inflight(self) -> int:
        return sum(ch.inflight for ch in self.channels)

    def total_reads(self) -> int:
        return sum(ch.reads for ch in self.channels)

    def total_programs(self) -> int:
        return sum(ch.programs for ch in self.channels)

    def total_erases(self) -> int:
        return sum(ch.erases for ch in self.channels)

    def channel_load(self) -> List[int]:
        """Reads issued per channel (load-balance diagnostics)."""
        return [ch.reads for ch in self.channels]
