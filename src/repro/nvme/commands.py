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
from enum import Enum
from typing import Annotated, Any

import numpy as np

from ..params import Domain, checked

__all__ = [
    "Opcode",
    "NvmeCommand",
    "NvmeCompletion",
    "Status",
    "SlbaCodec",
    "COMMAND_BYTES",
    "COMPLETION_BYTES",
]

COMMAND_BYTES = 64
COMPLETION_BYTES = 16

_cid_counter = itertools.count(1)


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
    so the controller can parent FTL work under it.
    """

    opcode: Opcode
    slba: int
    nlb: int
    nsid: int = 1
    ndp: bool = False
    data: Any = None
    cid: int = field(default_factory=_cid_counter.__next__)
    submit_time: float = 0.0
    obs_span: Any = None

    def __post_init__(self) -> None:
        if type(self.slba) is not int or type(self.nlb) is not int:
            self.slba = _lba_field("slba", self.slba)
            self.nlb = _lba_field("nlb", self.nlb)
        if self.slba < 0:
            raise ValueError("slba must be >= 0")
        if self.opcode not in (Opcode.FLUSH,) and self.nlb < 1:
            raise ValueError("nlb must be >= 1")


def _lba_field(name: str, value: Any) -> int:
    """``value`` as a Python int: a numpy integer converts, anything else
    (a float, NaN, a bool) is refused rather than read as an address."""
    if type(value) is int:
        return value
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"NvmeCommand.{name} must be an integer, got {value!r}")


@dataclass(slots=True)
class NvmeCompletion:
    cid: int
    status: Status = Status.SUCCESS
    payload: Any = None
    complete_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is Status.SUCCESS


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
