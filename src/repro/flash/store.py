"""Sparse physical page store.

Keeps the *content* of programmed flash pages.  Content is opaque to the
flash layer (the embedding layer stores lightweight virtual references for
preloaded tables; the write path stores real byte buffers).  The store
enforces NAND semantics: a page must be erased before it can be programmed
again, and pages are programmed sequentially within a block.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, Sequence

from .geometry import FlashGeometry

__all__ = ["FlashStore", "FlashStoreError"]


class FlashStoreError(RuntimeError):
    """Violation of NAND program/erase semantics."""


class FlashStore:
    """Tracks programmed page content and per-block program state."""

    def __init__(self, geometry: FlashGeometry, enforce_sequential: bool = True):
        self.geometry = geometry
        self.enforce_sequential = enforce_sequential
        self._content: Dict[int, Any] = {}
        # Virtual regions installed by the preload fast path: one entry per
        # block, mapping to (region, first_region_offset, stride).  Regions
        # provide page content on demand so multi-GB tables need no
        # per-page entries.
        self._regions: Dict[int, tuple[Any, int, int]] = {}
        # Next programmable page offset within each block (NAND requires
        # in-order programming); block id -> next page index.  Storing
        # content always leaves it >= 1 and only erase_block returns it
        # to 0, so 0 means erased.
        self._write_point: Dict[int, int] = {}
        self.program_count = 0
        self.erase_count = 0

    # ------------------------------------------------------------------
    def program(self, ppn: int, content: Any) -> None:
        geometry = self.geometry
        if not 0 <= ppn < geometry.total_pages:
            raise ValueError(f"ppn {ppn} out of range [0, {geometry.total_pages})")
        # PPNs are page-major within a block and blocks are numbered
        # densely (FlashGeometry), so no PhysAddr is needed.
        pages_per_block = geometry.pages_per_block
        block_id = ppn // pages_per_block
        page = ppn % pages_per_block
        if self.is_programmed(ppn):
            raise FlashStoreError(f"program to non-erased page ppn={ppn}")
        if self.enforce_sequential:
            expected = self._write_point.get(block_id, 0)
            if page != expected:
                raise FlashStoreError(
                    f"out-of-order program in block {block_id}: page {page}, "
                    f"expected {expected}"
                )
        self._write_point[block_id] = page + 1
        self._content[ppn] = content
        self.program_count += 1

    def read(self, ppn: int) -> Any:
        """Return page content; reading an unwritten page returns None."""
        content = self._content.get(ppn)
        if content is not None:
            return content
        block_id, page = divmod(ppn, self.geometry.pages_per_block)
        region_entry = self._regions.get(block_id)
        if region_entry is None:
            return None
        region, base, stride = region_entry
        return region.page_content(base + page * stride)

    def is_programmed(self, ppn: int) -> bool:
        if ppn in self._content:
            return True
        block_id = ppn // self.geometry.pages_per_block
        region_entry = self._regions.get(block_id)
        if region_entry is None:
            return False
        region, base, stride = region_entry
        offset = base + (ppn % self.geometry.pages_per_block) * stride
        return offset < region.page_count

    def erase_block(self, block_id: int) -> int:
        """Erase a block, dropping all its page content.  Returns pages dropped."""
        first = self.geometry.first_ppn_of_block(block_id)
        dropped = 0
        for ppn in range(first, first + self.geometry.pages_per_block):
            if self._content.pop(ppn, None) is not None:
                dropped += 1
        if self._regions.pop(block_id, None) is not None:
            dropped += self.geometry.pages_per_block
        self._write_point[block_id] = 0
        self.erase_count += 1
        return dropped

    def block_write_point(self, block_id: int) -> int:
        return self._write_point.get(block_id, 0)

    @property
    def programmed_pages(self) -> int:
        return len(self._content) + len(self._regions) * self.geometry.pages_per_block

    # ------------------------------------------------------------------
    def install(self, ppn: int, content: Any) -> None:
        """Directly install content, bypassing sequential-program checks.

        Used by the preload fast path when installing a table image without
        simulating millions of program operations.  Still refuses to clobber
        live data.
        """
        if self.is_programmed(ppn):
            raise FlashStoreError(f"install over programmed page ppn={ppn}")
        addr = self.geometry.addr(ppn)
        block_id = self.geometry.block_id(addr.channel, addr.way, addr.block)
        self._write_point[block_id] = max(
            self._write_point.get(block_id, 0), addr.page + 1
        )
        self._content[ppn] = content

    def install_region(
        self, block_ids: Sequence[int], region: Any, first_offset: int,
        stride: int = 1,
    ) -> None:
        """Install a virtual region covering whole blocks, one entry each.

        ``region.page_content(offset)`` supplies the content of page ``j``
        of the ``k``-th block at ``first_offset + (k * pages_per_block +
        j) * stride``; ``region.page_count`` bounds valid offsets.  The
        stride lets preloaded tables stripe logical pages across dies
        exactly like the log-structured write path would (consecutive
        logical pages on consecutive dies).  Regions back preloaded
        embedding tables, avoiding per-page dictionary entries for
        multi-million-page tables.  Every block must be erased: a write
        point of 0, which an installed region also raises.
        """
        if stride < 1:
            raise FlashStoreError("stride must be >= 1")
        if min(block_ids) < 0 or max(block_ids) >= self.geometry.total_blocks:
            raise FlashStoreError(
                f"block ids outside [0, {self.geometry.total_blocks})"
            )
        if len(set(block_ids)) != len(block_ids):
            raise FlashStoreError("block ids repeat a block")
        for block_id in self._write_point.keys() & block_ids:
            if self._write_point[block_id] != 0:
                raise FlashStoreError(f"block {block_id} not erased")
        per_block = self.geometry.pages_per_block
        step = per_block * stride
        offsets = range(first_offset, first_offset + len(block_ids) * step, step)
        self._regions.update(
            zip(block_ids, zip(repeat(region), offsets, repeat(stride)))
        )
        self._write_point.update(dict.fromkeys(block_ids, per_block))
