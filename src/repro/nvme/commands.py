"""NVMe command model, including the RecSSD NDP command encoding.

RecSSD keeps full NVMe compatibility: NDP SLS commands reuse the standard
read/write command structure and are distinguished by a single unused
command bit (Section 4.3).  The config-write and result-read halves of an
SLS operation are associated by embedding a request id into the starting
LBA: ``slba = table_base_lba + request_id``, recoverable with a modulus
given a minimum table size/alignment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from enum import Enum
from typing import Annotated, Any, Sequence

import numpy as np

from ..ftl.ftl import HostRead
from ..params import Domain, checked
from .payload import page_content_to_bytes

__all__ = [
    "Opcode",
    "NvmeCommand",
    "NvmeCompletion",
    "BlockRead",
    "Status",
    "SlbaCodec",
    "COMMAND_BYTES",
    "COMPLETION_BYTES",
]

COMMAND_BYTES = 64
COMPLETION_BYTES = 16

_next_cid = itertools.count(1).__next__


class Opcode(Enum):
    READ = 0x02
    WRITE = 0x01
    FLUSH = 0x00
    DSM = 0x09  # dataset management (deallocate / TRIM)


class Status(Enum):
    SUCCESS = 0x0
    INVALID_FIELD = 0x2
    LBA_OUT_OF_RANGE = 0x80
    INTERNAL_ERROR = 0x6


@dataclass(slots=True)
class NvmeCommand:
    """A submission-queue entry.

    ``ndp`` models the unused command bit that routes the command to the
    SLS engine instead of the conventional IO path.  ``data`` carries the
    payload object for writes (bytes for conventional IO, an
    ``SlsConfig`` for NDP config writes).  ``obs_span`` is the command's
    open ``nvme.cmd`` span while tracing (the driver sets it at submit),
    so the controller can parent FTL work under it.  ``qp`` and
    ``on_done`` are the queue pair and completion callback the driver
    issued it with.
    """

    opcode: Opcode
    slba: int
    nlb: int
    nsid: int = 1
    ndp: bool = False
    data: Any = None
    cid: int = field(default_factory=_next_cid)
    submit_time: float = 0.0
    obs_span: Any = None
    qp: Any = None
    on_done: Any = None

    def __post_init__(self) -> None:
        some = self.opcode is not Opcode.FLUSH
        if type(self.slba) is not int or type(self.nlb) is not int or self.slba < 0 or (
            some and self.nlb < 1
        ):
            self.slba, self.nlb = _lbas(self, self.slba, self.nlb, some)


def _lbas(cmd: Any, slba: Any, nlb: Any, some: bool = True) -> tuple[int, int]:
    """``(slba, nlb)`` as Python ints, ``slba >= 0`` and, if ``some``,
    ``nlb >= 1``: a numpy integer converts, anything else (a float, NaN,
    a bool) is refused rather than read as an address."""
    for name, value in (("slba", slba), ("nlb", nlb)):
        if type(value) is not int and not isinstance(value, np.integer):
            raise TypeError(f"{type(cmd).__name__}.{name} must be an integer, got {value!r}")
    if slba < 0:
        raise ValueError("slba must be >= 0")
    if some and nlb < 1:
        raise ValueError("nlb must be >= 1")
    return int(slba), int(nlb)


@dataclass(slots=True)
class NvmeCompletion:
    cid: int
    status: Status = Status.SUCCESS
    payload: Any = None
    complete_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is Status.SUCCESS


class BlockRead(HostRead):
    """A conventional NVMe read, one record from the driver's submit to
    its pickup off the CQ: the command (``cid``, ``slba``, ``nlb``), its
    page read (the controller fills the page fields at fetch), and the
    completion the driver hands on, with an :class:`NvmeCompletion`'s
    surface: ``status``, ``ok``, ``complete_time`` (its CQ entry's
    landing) and a ``payload`` (itself) whose ``segments`` are itself or
    its ``pages``.  A read the controller refuses completes with an
    :class:`NvmeCompletion` instead."""

    __slots__ = (
        "cid", "slba", "nlb", "submit_time", "obs_span", "qp", "on_done",
        "ctrl", "span", "complete_time",
    )
    opcode = Opcode.READ
    ndp = False
    status = Status.SUCCESS
    ok = True

    def __init__(self, slba: int, nlb: int):
        self.cid = _next_cid()
        if type(slba) is not int or type(nlb) is not int or slba < 0 or nlb < 1:
            slba, nlb = _lbas(self, slba, nlb)
        self.slba = slba
        self.nlb = nlb
        self.obs_span = None
        self.span = None
        self.content = None
        self.pages = None

    @property
    def payload(self) -> "BlockRead":
        return self

    @property
    def segments(self) -> Sequence[HostRead]:
        pages = self.pages
        return (self,) if pages is None else pages

    def to_bytes(self, page_bytes: int) -> np.ndarray:
        """The bytes read, one uint8 buffer."""
        out = np.concatenate([
            page_content_to_bytes(seg.content, page_bytes)[seg.offset : seg.offset + seg.nbytes]
            for seg in self.segments
        ])
        if out.size != self.nbytes:
            raise AssertionError("payload size mismatch")
        return out

    def pages_read(self) -> None:
        # DMA set-up and data over PCIe (one hand-off event), then posted
        # as its own completion.
        ctrl = self.ctrl
        if self.span is not None:
            ctrl.sim.tracer.end(self.span)
        cpu = ctrl.ftl.cpu
        ctrl.pcie.d2h.transfer_after(
            cpu.host_core, cpu.costs.dma_setup_s, self.nbytes, partial(ctrl.post, self.qp, self)
        )


class SlbaCodec:
    """Encode/decode the (table base, request id) pair inside an SLBA.

    ``alignment_lbas`` is the minimum table size/alignment in logical
    blocks; table base addresses must be multiples of it and request ids
    must be smaller than it, so ``slba % alignment`` recovers the id.
    """

    @checked
    def __init__(self, alignment_lbas: Annotated[int, Domain(2, integral=True)]):
        self.alignment = alignment_lbas

    def validate_table_base(self, table_base_lba: int) -> None:
        if table_base_lba % self.alignment != 0:
            raise ValueError(
                f"table base {table_base_lba} not aligned to {self.alignment}"
            )

    def encode(self, table_base_lba: int, request_id: int) -> int:
        self.validate_table_base(table_base_lba)
        if not 0 <= request_id < self.alignment:
            raise ValueError(
                f"request id {request_id} out of range [0, {self.alignment})"
            )
        return table_base_lba + request_id

    def decode(self, slba: int) -> tuple[int, int]:
        """Return ``(table_base_lba, request_id)``."""
        request_id = slba % self.alignment
        return slba - request_id, request_id
