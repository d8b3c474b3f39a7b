"""Flash channel and array simulation.

Each channel owns one bus (:class:`~repro.sim.resources.Server`) shared by
``ways`` dies.  Reads occupy the die for tR then the bus for the page
transfer; programs occupy the bus first (data in) then the die for tPROG;
erases occupy the die only.  With >=2 ways per channel, sustained read
throughput is bus-bound at ``page_bytes / channel_bw`` per page — the 10K
IOPS/channel figure from the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, List, Optional

from ..sim.kernel import Simulator
from ..sim.resources import Server
from .geometry import FlashGeometry
from .reliability import ReadRetryModel, ReliabilityConfig, UncorrectableError
from .store import FlashStore
from .timing import FlashTiming

__all__ = ["FlashChannel", "FlashArray", "PageRead"]

ReadCallback = Callable[[Any], None]
DoneCallback = Callable[[], None]


# One record per queued page: its bound methods are the stage callbacks,
# and as it never refers to itself the last stage returning frees it.


class PageRead:
    """A page read in flight: die phase (tR) -> bus phase (transfer) ->
    :meth:`landed` with the content, ``None`` for an uncorrectable read.

    :meth:`FlashArray.admit` fills the slots and queues :meth:`die_done`.
    A reader that is itself a record in flight (an FTL page read, a GC
    page move, an NDP page) extends this class and is its own flash read;
    :meth:`FlashArray.read` wraps a bare callback in one."""

    __slots__ = ("array", "bus", "xfer", "ppn", "failed")

    array: "FlashArray"
    bus: Server
    xfer: float  # as the channel had it at admission
    ppn: int
    failed: bool

    def die_done(self) -> None:
        self.bus.submit(self.xfer, self.bus_done)

    def bus_done(self) -> None:
        array = self.array
        array.reads_completed += 1
        self.landed(None if self.failed else array.store.read(self.ppn))

    def landed(self, content: Any) -> None:
        raise NotImplementedError


class _CallbackRead(PageRead):
    """:meth:`FlashArray.read`'s record: ``on_done(content)`` on landing."""

    __slots__ = ("landed",)

    def __init__(self, on_done: ReadCallback):
        self.landed = on_done


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
        self.bus = Server(sim, name=f"ch{channel_id}.bus")
        self.dies = [
            Server(sim, name=f"ch{channel_id}.die{w}") for w in range(ways)
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
        # Page reads whose data is on-chip (a failed read counts too).
        self.reads_completed = 0
        self.uncorrectable_reads = 0

    # ------------------------------------------------------------------
    def read(self, ppn: int, on_done: ReadCallback) -> None:
        """Read page ``ppn``; ``on_done(content)`` fires when data is on-chip.

        Uncorrectable reads (reliability model) deliver ``None`` after the
        full retry sequence, as a real drive would report a media error.
        """
        self.admit(_CallbackRead(on_done), ppn)

    def admit(self, read: PageRead, ppn: int) -> None:
        """Start ``read`` of page ``ppn``: :meth:`read` for a reader that
        is its own :class:`PageRead`, whose ``landed`` gets the content."""
        geometry = self.geometry
        if not 0 <= ppn < geometry.total_pages:
            raise ValueError(f"ppn {ppn} out of range [0, {geometry.total_pages})")
        # geometry.addr(ppn)'s channel and way, without the PhysAddr.
        die = ppn // geometry.pages_per_die
        reliability = self.reliability
        retries = 0
        failed = False
        if reliability.config.read_fail_probability > 0.0:
            try:
                retries = reliability.retries_for_read()
            except UncorrectableError:
                retries = reliability.config.max_read_retries
                failed = True
                self.uncorrectable_reads += 1
        else:
            reliability.reads += 1      # retries_for_read's count, without the call
        channel = self.channels[die // geometry.ways]
        channel.reads += 1
        read.array = self
        read.bus = channel.bus
        read.xfer = channel.page_xfer_s
        read.ppn = ppn
        read.failed = failed
        # Each retry costs another command + tR on the die before the
        # data transfer.
        channel.dies[die % geometry.ways].submit(
            (1 + retries) * channel.read_unit_s, read.die_done
        )

    def program(self, ppn: int, content: Any, on_done: DoneCallback) -> None:
        """Program ``content`` into page ``ppn`` (store updated at completion)."""
        geometry = self.geometry
        if not 0 <= ppn < geometry.total_pages:
            raise ValueError(f"ppn {ppn} out of range [0, {geometry.total_pages})")
        # As in read: the die's channel and way, without the PhysAddr.
        die = ppn // geometry.pages_per_die
        channel = self.channels[die // geometry.ways]
        channel.programs += 1
        channel.bus.submit(
            channel.page_xfer_s,
            _PageProgram(
                self, channel, channel.dies[die % geometry.ways], ppn, content, on_done
            ).bus_done,
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
