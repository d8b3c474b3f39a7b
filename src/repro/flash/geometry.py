"""NAND flash array geometry.

The array is organised as ``channels x ways`` dies; each die holds
``blocks_per_die`` erase blocks of ``pages_per_block`` pages of
``page_bytes`` bytes.  Physical page numbers (PPNs) are dense integers;
the geometry provides the PPN <-> (channel, way, block, page) codec and
derived capacity figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..params import PosCount, check_domains

__all__ = ["FlashGeometry", "PhysAddr"]


class PhysAddr(NamedTuple):
    channel: int
    way: int
    block: int
    page: int


@dataclass(frozen=True)
class FlashGeometry:
    """Static shape of the flash array."""

    channels: PosCount = 8
    ways: PosCount = 4
    blocks_per_die: PosCount = 64
    pages_per_block: PosCount = 128
    page_bytes: PosCount = 16 * 1024

    def __post_init__(self) -> None:
        check_domains(self)
        # Derived counts, worked out once (``addr`` and the FTL read them
        # per page).  Not fields: equality, hash and repr stay those of
        # the five above, and the frozen dataclass keeps them read-only.
        derive = object.__setattr__
        derive(self, "dies", self.channels * self.ways)
        derive(self, "pages_per_die", self.blocks_per_die * self.pages_per_block)
        derive(self, "total_blocks", self.dies * self.blocks_per_die)
        derive(self, "total_pages", self.dies * self.pages_per_die)

    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self.total_pages * self.page_bytes

    # ------------------------------------------------------------------
    # PPN layout: page-major within block, block within die, die id =
    # channel * ways + way.  Writes striped across dies therefore rotate
    # channels fastest when die ids are assigned round-robin.
    # ------------------------------------------------------------------
    def die_index(self, channel: int, way: int) -> int:
        return channel * self.ways + way

    def ppn(self, addr: PhysAddr) -> int:
        self.validate(addr)
        die = self.die_index(addr.channel, addr.way)
        return (die * self.blocks_per_die + addr.block) * self.pages_per_block + addr.page

    def addr(self, ppn: int) -> PhysAddr:
        if not 0 <= ppn < self.total_pages:
            raise ValueError(f"ppn {ppn} out of range [0, {self.total_pages})")
        page = ppn % self.pages_per_block
        block_linear = ppn // self.pages_per_block
        block = block_linear % self.blocks_per_die
        die = block_linear // self.blocks_per_die
        channel, way = divmod(die, self.ways)
        return PhysAddr(channel, way, block, page)

    def block_id(self, channel: int, way: int, block: int) -> int:
        """Dense global block id."""
        return self.die_index(channel, way) * self.blocks_per_die + block

    def block_addr(self, block_id: int) -> tuple[int, int, int]:
        if not 0 <= block_id < self.total_blocks:
            raise ValueError(f"block id {block_id} out of range")
        block = block_id % self.blocks_per_die
        die = block_id // self.blocks_per_die
        channel, way = divmod(die, self.ways)
        return channel, way, block

    def first_ppn_of_block(self, block_id: int) -> int:
        return block_id * self.pages_per_block

    def validate(self, addr: PhysAddr) -> None:
        if not 0 <= addr.channel < self.channels:
            raise ValueError(f"channel {addr.channel} out of range")
        if not 0 <= addr.way < self.ways:
            raise ValueError(f"way {addr.way} out of range")
        if not 0 <= addr.block < self.blocks_per_die:
            raise ValueError(f"block {addr.block} out of range")
        if not 0 <= addr.page < self.pages_per_block:
            raise ValueError(f"page {addr.page} out of range")
