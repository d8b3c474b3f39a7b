"""Device-side NVMe controller.

Fetches commands from submission queues (paying PCIe and host-interface
CPU time), dispatches conventional IO to the FTL, routes NDP-flagged
commands to the attached SLS engine, DMAs data, and posts completions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..ftl.ftl import GreedyFtl, HostRead
from ..sim.kernel import Simulator
from .commands import (
    COMMAND_BYTES,
    COMPLETION_BYTES,
    BlockRead,
    NvmeCommand,
    NvmeCompletion,
    Opcode,
    Status,
)
from .payload import PageImagePayload, page_content_to_bytes
from .pcie import PcieLink
from .queues import QueuePair

__all__ = ["NvmeController"]


# One record per unit of work waiting in a queue: its bound methods are
# the stage callbacks (a single deferred call is a ``partial``).


@dataclass(slots=True, eq=False)
class _Fetch:
    """The fetch state of one queue pair.  Fetches are serial per SQ, so
    this lives as long as the pair and holds the command being fetched
    (``None``: the fetcher is idle).  Its ``doorbell`` is the SQ's: an
    idle fetcher pops the command it was rung for, and each fetch, once
    dispatched, pops the next one the same way."""

    ctrl: "NvmeController"
    qp: QueuePair
    cmd: Any = None                     # an NvmeCommand or a BlockRead

    def doorbell(self, _qid: int) -> None:
        if self.cmd is None:
            self.cmd = self.qp.sq._ring.popleft()
            self.ctrl.pcie.h2d.transfer(COMMAND_BYTES, self.after_xfer)

    def after_xfer(self) -> None:
        cpu = self.ctrl.ftl.cpu
        cpu.host_core.submit(cpu.costs.cmd_fetch_s, self.after_cpu)

    def after_cpu(self) -> None:
        ctrl = self.ctrl
        ctrl.commands_fetched += 1
        cmd = self.cmd
        if type(cmd) is not BlockRead:
            ctrl._dispatch(self.qp, cmd)
        elif cmd.slba + cmd.nlb > ctrl.logical_lbas:
            ctrl.complete(self.qp, cmd, None, Status.LBA_OUT_OF_RANGE)
        else:
            # A conventional read: its page fields, then the FTL.
            ctrl.reads_served += 1
            cmd.ctrl = ctrl
            slba, lbas_per_page = cmd.slba, ctrl.lbas_per_page
            first, last = slba // lbas_per_page, (slba + cmd.nlb - 1) // lbas_per_page
            cmd.nbytes = cmd.nlb * ctrl.lba_bytes
            if first == last:
                cmd.lpn = first
                cmd.offset = (slba - first * lbas_per_page) * ctrl.lba_bytes
            else:
                cmd.pages = ctrl._pages(cmd, first, last)
            tracer = ctrl.sim.tracer
            if tracer is not None:
                cmd.span = tracer.begin("ftl.read", parent=cmd.obs_span, pages=last - first + 1)
            ctrl.ftl.read(cmd)
        ring = self.qp.sq._ring
        if ring:
            self.cmd = ring.popleft()
            ctrl.pcie.h2d.transfer(COMMAND_BYTES, self.after_xfer)
        else:
            self.cmd = None


@dataclass(slots=True, eq=False)
class _Write:
    """A write command whose pages are on their way into the FTL."""

    ctrl: "NvmeController"
    qp: QueuePair
    cmd: NvmeCommand
    remaining: int
    tracer: Any
    span: Any
    base_lpn: int = 0  # of a page-image write

    def images_arrived(self) -> None:
        ftl = self.ctrl.ftl
        for i, content in enumerate(self.cmd.data.contents):
            ftl.write_page(self.base_lpn + i, content, self.page_written)

    def page_written(self) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            if self.span is not None:
                self.tracer.end(self.span)
            self.ctrl.complete(self.qp, self.cmd)


class NvmeController:
    """Bridges queue pairs to the FTL / NDP engine over a PCIe link."""

    def __init__(self, sim: Simulator, ftl: GreedyFtl, pcie: PcieLink):
        self.sim = sim
        self.ftl = ftl
        self.pcie = pcie
        self.qpairs: Dict[int, QueuePair] = {}
        self.ndp_engine: Optional[Any] = None  # set by the SSD device assembly
        self.commands_fetched = 0
        self.reads_served = 0
        self.writes_served = 0
        # The FTL's geometry, read once: the per-command path reads these
        # instead of the FTL's derived properties.
        self.lba_bytes = ftl.config.lba_bytes
        self.page_bytes = ftl.page_bytes
        self.lbas_per_page = ftl.lbas_per_page
        self.logical_lbas = ftl.logical_lbas

    # ------------------------------------------------------------------
    # Queue registration / doorbells
    # ------------------------------------------------------------------
    def attach_qpair(self, qp: QueuePair) -> None:
        if qp.qid in self.qpairs:
            raise ValueError(f"qpair {qp.qid} already attached")
        self.qpairs[qp.qid] = qp
        qp.sq.set_doorbell(_Fetch(self, qp).doorbell)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, qp: QueuePair, cmd: NvmeCommand) -> None:
        if cmd.ndp:
            self._dispatch_ndp(qp, cmd)
            return
        if cmd.opcode is Opcode.WRITE:
            self._do_write(qp, cmd)
        elif cmd.opcode is Opcode.FLUSH:
            self.complete(qp, cmd, None, Status.SUCCESS)
        elif cmd.opcode is Opcode.DSM:
            self._do_trim(qp, cmd)
        else:  # a conventional read is a BlockRead
            self.complete(qp, cmd, None, Status.INVALID_FIELD)

    def _dispatch_ndp(self, qp: QueuePair, cmd: NvmeCommand) -> None:
        if self.ndp_engine is None:
            self.complete(qp, cmd, None, Status.INVALID_FIELD)
            return
        done = partial(self.complete, qp, cmd)
        if cmd.opcode is Opcode.WRITE:
            self.ndp_engine.handle_config_write(cmd, done)
        elif cmd.opcode is Opcode.READ:
            self.ndp_engine.handle_result_read(cmd, done)
        else:
            self.complete(qp, cmd, None, Status.INVALID_FIELD)

    # ------------------------------------------------------------------
    # Conventional read
    # ------------------------------------------------------------------
    def _pages(self, read: BlockRead, first: int, last: int) -> List[HostRead]:
        """Pages ``first..last`` of a read, each with the bytes it asked for."""
        page_bytes = self.page_bytes
        start = read.slba * self.lba_bytes
        end = start + read.nbytes
        pages = []
        for lpn in range(first, last + 1):
            at = lpn * page_bytes
            pages.append(HostRead(lpn, max(start - at, 0), min(end, at + page_bytes) - max(start, at)))
        return pages

    # ------------------------------------------------------------------
    # TRIM (dataset management deallocate): drop mappings for whole pages
    # covered by the range; partially covered pages are left intact.
    # ------------------------------------------------------------------
    def _do_trim(self, qp: QueuePair, cmd: NvmeCommand) -> None:
        if cmd.slba + cmd.nlb > self.logical_lbas:
            self.complete(qp, cmd, None, Status.LBA_OUT_OF_RANGE)
            return
        lbas_per_page = self.lbas_per_page
        first_full = -(-cmd.slba // lbas_per_page)
        last_full = (cmd.slba + cmd.nlb) // lbas_per_page
        lpns = list(range(first_full, last_full))

        def after_cpu() -> None:
            for lpn in lpns:
                self.ftl.trim_page(lpn)
            self.complete(qp, cmd, None)

        cost = self.ftl.cpu.costs.io_hit_s + len(lpns) * 1e-6
        self.ftl.cpu.ftl_core.submit(cost, after_cpu)

    # ------------------------------------------------------------------
    # Conventional write
    # ------------------------------------------------------------------
    def _do_write(self, qp: QueuePair, cmd: NvmeCommand) -> None:
        lba_bytes = self.lba_bytes
        if cmd.slba + cmd.nlb > self.logical_lbas:
            self.complete(qp, cmd, None, Status.LBA_OUT_OF_RANGE)
            return
        if isinstance(cmd.data, PageImagePayload):
            self._do_write_images(qp, cmd)
            return
        data = np.asarray(cmd.data, dtype=np.uint8).reshape(-1)
        total_bytes = cmd.nlb * lba_bytes
        if data.size != total_bytes:
            self.complete(qp, cmd, None, Status.INVALID_FIELD)
            return
        self.writes_served += 1

        def after_data() -> None:
            self._write_pages(qp, cmd, data)

        self.pcie.to_device(total_bytes, after_data)

    def _do_write_images(self, qp: QueuePair, cmd: NvmeCommand) -> None:
        """Whole-page writes carrying content objects instead of bytes.

        The host pays the same wire transfer as a byte write of the same
        span; the FTL then programs each page with the carried content
        (virtual table pages stay read-through after the rewrite).
        """
        payload: PageImagePayload = cmd.data
        lba_bytes = self.lba_bytes
        lbas_per_page = self.lbas_per_page
        total_bytes = cmd.nlb * lba_bytes
        if (
            cmd.slba % lbas_per_page != 0
            or cmd.nlb != len(payload.contents) * lbas_per_page
            or payload.nbytes != total_bytes
        ):
            self.complete(qp, cmd, None, Status.INVALID_FIELD)
            return
        self.writes_served += 1
        tracer = self.sim.tracer
        write_span = None
        if tracer is not None:
            write_span = tracer.begin(
                "ftl.write",
                parent=cmd.obs_span,
                pages=len(payload.contents),
            )
        write = _Write(
            self, qp, cmd, len(payload.contents), tracer, write_span, cmd.slba // lbas_per_page
        )
        self.pcie.to_device(total_bytes, write.images_arrived)

    def _write_pages(self, qp: QueuePair, cmd: NvmeCommand, data: np.ndarray) -> None:
        lba_bytes = self.lba_bytes
        page_bytes = self.page_bytes
        start_byte = cmd.slba * lba_bytes
        end_byte = start_byte + data.size
        lpns = list(self.ftl.lpn_range_for_lbas(cmd.slba, cmd.nlb))
        tracer = self.sim.tracer
        write_span = None
        if tracer is not None:
            write_span = tracer.begin(
                "ftl.write",
                parent=cmd.obs_span,
                pages=len(lpns),
            )
        page_written = _Write(self, qp, cmd, len(lpns), tracer, write_span).page_written
        for lpn in lpns:
            page_start = lpn * page_bytes
            seg_start = max(start_byte, page_start)
            seg_end = min(end_byte, page_start + page_bytes)
            chunk = data[seg_start - start_byte : seg_end - start_byte]
            if seg_end - seg_start == page_bytes:
                self.ftl.write_page(lpn, chunk.copy(), page_written)
            else:
                self._read_modify_write(
                    lpn, chunk, seg_start - page_start, page_written
                )

    def _read_modify_write(
        self, lpn: int, chunk: np.ndarray, offset: int, on_done: Callable[[], None]
    ) -> None:
        page_bytes = self.page_bytes

        def after_read(content: Any, _hit: bool) -> None:
            page = page_content_to_bytes(content, page_bytes).copy()
            page[offset : offset + chunk.size] = chunk
            self.ftl.write_page(lpn, page, on_done)

        self.ftl.read_page(lpn, after_read)

    # ------------------------------------------------------------------
    # DMA helpers for the NDP engine
    # ------------------------------------------------------------------
    def dma_to_host(self, nbytes: int, on_done: Callable[[], None]) -> None:
        cpu = self.ftl.cpu
        self.pcie.d2h.transfer_after(cpu.host_core, cpu.costs.dma_setup_s, nbytes, on_done)

    def dma_to_device(self, nbytes: int, on_done: Callable[[], None]) -> None:
        cpu = self.ftl.cpu
        cpu.host_core.submit(cpu.costs.dma_setup_s, partial(self.pcie.to_device, nbytes, on_done))

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def complete(
        self,
        qp: QueuePair,
        cmd: NvmeCommand,
        payload: Any = None,
        status: Status = Status.SUCCESS,
    ) -> None:
        self.post(qp, NvmeCompletion(cmd.cid, status, payload))

    def post(self, qp: QueuePair, cpl: Any) -> None:
        """Post ``cpl`` (an :class:`NvmeCompletion`, or a :class:`BlockRead`
        as its own) to ``qp``'s CQ: completion CPU time, then the entry
        over PCIe and the driver's pickup of it (one hand-off event,
        ``pickup_s`` after the entry lands), stamped with the instant it
        landed."""
        cpu = self.ftl.cpu
        cq = qp.cq
        cpl.complete_time = self.pcie.d2h.transfer_after(
            cpu.host_core, cpu.costs.cmd_complete_s, COMPLETION_BYTES, partial(cq.post, cpl),
            cq.pickup_s,
        )
