"""Logical-to-physical page mapping with validity tracking.

The FTL maps logical page numbers (LPNs) to physical page numbers (PPNs).
A remap invalidates the previous physical page; per-block valid-page counts
feed garbage-collection victim selection.

Entries are 4 bytes wide, as in a real page-mapped FTL (the "1 GB of
device DRAM per TB of 4 KB pages" rule): L2P and P2L are ``int32``, so a
geometry may hold at most ``2**31 - 1`` pages — 32 TB of 16 KB pages.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..flash.geometry import FlashGeometry
from ..params import PosCount, checked

__all__ = ["MappingTable", "UNMAPPED"]

UNMAPPED = -1
_MAX_PAGES = 2**31 - 1


class MappingTable:
    """Dense ``int32`` L2P / P2L arrays plus per-block valid-page counters."""

    @checked
    def __init__(self, geometry: FlashGeometry, logical_pages: PosCount):
        if geometry.total_pages > _MAX_PAGES:
            raise ValueError(
                f"geometry has {geometry.total_pages} pages; int32 mapping "
                f"entries address at most 2**31 - 1"
            )
        if logical_pages > geometry.total_pages:
            raise ValueError(
                f"logical space ({logical_pages} pages) exceeds physical "
                f"({geometry.total_pages} pages)"
            )
        self.geometry = geometry
        self.logical_pages = logical_pages
        # One buffer, L2P then P2L.  glibc keeps freed heap up to twice
        # the largest mmapped buffer freed so far; on the benchmark
        # device one 10 MB buffer keeps the next set-up's heap resident,
        # where two 5 MB ones cost dram_serve's next set-up ~4,800 page
        # faults (+20 % set-up time).
        entries = np.full(
            logical_pages + geometry.total_pages, UNMAPPED, dtype=np.int32
        )
        self._l2p = entries[:logical_pages]
        self._p2l = entries[logical_pages:]
        # ``l2p[lpn]`` is :meth:`lookup` as a plain int, no numpy scalar
        # on the way: a read-only view of the L2P array, no copy.
        self.l2p = memoryview(self._l2p).toreadonly()
        self._valid_per_block = np.zeros(geometry.total_blocks, dtype=np.int32)

    # ------------------------------------------------------------------
    def lookup(self, lpn: int) -> int:
        """Return PPN for ``lpn`` or ``UNMAPPED``."""
        return self.l2p[lpn]

    def lookup_many(self, lpns: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`lookup`: PPN (or ``UNMAPPED``) per LPN of an
        integer array, as ``int32``."""
        return self._l2p[lpns]

    def reverse(self, ppn: int) -> int:
        """Return LPN mapped to ``ppn`` or ``UNMAPPED``."""
        return int(self._p2l[ppn])

    def is_mapped(self, lpn: int) -> bool:
        return bool(self._l2p[lpn] != UNMAPPED)

    def map(self, lpn: int, ppn: int) -> int:
        """Map ``lpn`` -> ``ppn``; returns the invalidated old PPN (or UNMAPPED)."""
        if not 0 <= lpn < self.logical_pages:
            raise IndexError(f"lpn {lpn} out of range")
        if not 0 <= ppn < self.geometry.total_pages:
            raise IndexError(f"ppn {ppn} out of range")
        if self._p2l[ppn] != UNMAPPED:
            raise ValueError(f"ppn {ppn} already holds lpn {self._p2l[ppn]}")
        old_ppn = int(self._l2p[lpn])
        if old_ppn != UNMAPPED:
            self._invalidate_ppn(old_ppn)
        self._l2p[lpn] = ppn
        self._p2l[ppn] = lpn
        self._valid_per_block[ppn // self.geometry.pages_per_block] += 1
        return old_ppn

    def unmap(self, lpn: int) -> int:
        """Drop the mapping for ``lpn`` (trim); returns old PPN."""
        old_ppn = int(self._l2p[lpn])
        if old_ppn != UNMAPPED:
            self._invalidate_ppn(old_ppn)
            self._l2p[lpn] = UNMAPPED
        return old_ppn

    def map_strided(
        self, lpn_start: int, stride: int, blocks: Sequence[int], pages: int
    ) -> None:
        """Map the ``pages`` LPNs ``lpn_start, lpn_start + stride, ...``
        onto the pages of ``blocks`` in order, each block filled from its
        first page and only the last one partly: one die's share of a
        striped preload.

        The result is :meth:`map` issued page by page, with its checks:
        LPNs and blocks in range, target pages distinct and unmapped, and
        an already-mapped LPN's old page invalidated.  ``blocks`` holds
        exactly the ``ceil(pages / pages_per_block)`` target blocks.  L2P
        is one strided slice and P2L one row per block, so the work is a
        few numpy passes over the pages; the distinct-target check is
        O(blocks) when ``blocks`` ascends and sorts them only when not.
        """
        per_block = self.geometry.pages_per_block
        blocks = np.asarray(blocks, dtype=np.int64)
        full, tail = divmod(pages, per_block)
        if pages < 1 or stride < 1:
            raise ValueError("map_strided needs pages >= 1 and stride >= 1")
        if blocks.size != full + (tail > 0):
            raise ValueError(f"{pages} pages fill {full + (tail > 0)} blocks, "
                             f"not {blocks.size}")
        lpn_stop = lpn_start + (pages - 1) * stride + 1
        if lpn_start < 0 or lpn_stop > self.logical_pages:
            raise IndexError("map_strided lpn range out of bounds")
        if blocks.min() < 0 or blocks.max() >= self.geometry.total_blocks:
            raise IndexError("map_strided block out of bounds")
        if np.any(blocks[1:] <= blocks[:-1]):
            ordered = np.sort(blocks)
            if np.any(ordered[1:] == ordered[:-1]):
                raise ValueError("map_strided duplicate target blocks")
        p2l = self._p2l.reshape(-1, per_block)          # a row per block
        if np.any(p2l[blocks].reshape(-1)[:pages] != UNMAPPED):
            raise ValueError("map_strided target ppns already mapped")
        l2p = self._l2p[lpn_start:lpn_stop:stride]
        old = l2p[l2p != UNMAPPED]
        if old.size:
            self._p2l[old] = UNMAPPED
            np.subtract.at(self._valid_per_block, old // per_block, 1)
            if np.any(self._valid_per_block < 0):
                raise AssertionError("valid count underflow in map_strided")
        first_ppns = (blocks * per_block).astype(np.int32)
        in_block = np.arange(per_block, dtype=np.int32)
        np.add(first_ppns[:full, None], in_block,
               out=l2p[: full * per_block].reshape(full, per_block))
        l2p[full * per_block :] = first_ppns[full:] + in_block[:tail]
        lpns = np.arange(lpn_start, lpn_stop, stride, dtype=np.int32)
        p2l[blocks[:full]] = lpns[: full * per_block].reshape(full, per_block)
        p2l[blocks[full:], :tail] = lpns[full * per_block :]
        self._valid_per_block[blocks[:full]] += per_block
        self._valid_per_block[blocks[full:]] += tail

    def _invalidate_ppn(self, ppn: int) -> None:
        self._p2l[ppn] = UNMAPPED
        block = ppn // self.geometry.pages_per_block
        self._valid_per_block[block] -= 1
        if self._valid_per_block[block] < 0:
            raise AssertionError(f"valid count underflow in block {block}")

    # ------------------------------------------------------------------
    def valid_pages_in_block(self, block_id: int) -> int:
        return int(self._valid_per_block[block_id])

    def valid_lpns_in_block(self, block_id: int) -> list[int]:
        first = self.geometry.first_ppn_of_block(block_id)
        pages = self.geometry.pages_per_block
        lpns = self._p2l[first : first + pages]
        return [int(l) for l in lpns if l != UNMAPPED]

    def min_valid_block(self, candidates: list[int]) -> int:
        """Victim selection: candidate block with fewest valid pages."""
        if not candidates:
            raise ValueError("no candidate blocks")
        best = candidates[0]
        best_valid = self._valid_per_block[best]
        for block_id in candidates[1:]:
            valid = self._valid_per_block[block_id]
            if valid < best_valid:
                best, best_valid = block_id, valid
        return int(best)

    @property
    def mapped_count(self) -> int:
        return int(np.count_nonzero(self._l2p != UNMAPPED))

    def check_consistency(self) -> None:
        """Validate that L2P and P2L are inverse bijections between mapped
        LPNs and valid PPNs, and that every block's valid count is its
        number of valid PPNs (test hook; vectorized, so cheap at any size).
        """
        mapped = np.flatnonzero(self._l2p != UNMAPPED)
        bad = mapped[self._p2l[self._l2p[mapped]] != mapped]
        if bad.size:
            lpn = int(bad[0])
            raise AssertionError(
                f"l2p/p2l mismatch at lpn={lpn} ppn={self.lookup(lpn)}"
            )
        valid = np.flatnonzero(self._p2l != UNMAPPED)
        bad = valid[self._l2p[self._p2l[valid]] != valid]
        if bad.size:
            ppn = int(bad[0])
            raise AssertionError(
                f"p2l/l2p mismatch at ppn={ppn} lpn={self.reverse(ppn)}"
            )
        counts = np.bincount(
            valid // self.geometry.pages_per_block,
            minlength=self.geometry.total_blocks,
        )
        if not np.array_equal(counts, self._valid_per_block):
            raise AssertionError("per-block valid counts inconsistent")
