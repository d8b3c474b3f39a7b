"""Logical-to-physical page mapping with validity tracking.

The FTL maps logical page numbers (LPNs) to physical page numbers (PPNs).
A remap invalidates the previous physical page; per-block valid-page counts
feed garbage-collection victim selection.

Entries are 4 bytes wide, as in a real page-mapped FTL (the "1 GB of
device DRAM per TB of 4 KB pages" rule): L2P and P2L are ``int32``, so a
geometry may hold at most ``2**31 - 1`` pages — 32 TB of 16 KB pages.
"""

from __future__ import annotations

import numpy as np

from ..flash.geometry import FlashGeometry

__all__ = ["MappingTable", "UNMAPPED"]

UNMAPPED = -1
_MAX_PAGES = 2**31 - 1


def _has_duplicates(values: np.ndarray) -> bool:
    """Sort + adjacent compare: on a preload-sized batch ``np.unique``
    (numpy 2's hash path) costs ~10x this."""
    ordered = np.sort(values)
    return bool(np.any(ordered[1:] == ordered[:-1]))


class MappingTable:
    """Dense ``int32`` L2P / P2L arrays plus per-block valid-page counters."""

    def __init__(self, geometry: FlashGeometry, logical_pages: int):
        if logical_pages < 1:
            raise ValueError("logical_pages must be >= 1")
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
        self._valid_per_block = np.zeros(geometry.total_blocks, dtype=np.int32)

    # ------------------------------------------------------------------
    def lookup(self, lpn: int) -> int:
        """Return PPN for ``lpn`` or ``UNMAPPED``."""
        return int(self._l2p[lpn])

    def lookup_many(self, lpns: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`lookup`: PPN (or ``UNMAPPED``) per LPN, as ``int32``."""
        return self._l2p[np.asarray(lpns, dtype=np.int64)]

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

    def bulk_map(self, lpn_start: int, ppns: np.ndarray) -> np.ndarray:
        """Vectorized mapping of consecutive LPNs onto ``ppns`` (preload)."""
        ppns = np.asarray(ppns, dtype=np.int64)
        return self.bulk_map_pairs(
            np.arange(lpn_start, lpn_start + ppns.size, dtype=np.int64), ppns
        )

    def bulk_map_pairs(self, lpns: np.ndarray, ppns: np.ndarray) -> np.ndarray:
        """Vectorized mapping of (lpn, ppn) pairs; last write wins.

        Target PPNs must be unmapped (they are freshly allocated pages),
        but target LPNs may already be mapped — their old physical pages
        are invalidated exactly as :meth:`map` would.  Duplicate LPNs
        within one batch take the *last* pair, mirroring the sequential
        semantics of issuing :meth:`map` per pair; the physical pages the
        earlier duplicates would have occupied are dead on arrival.

        Returns the sorted array of invalidated PPNs (previous mappings
        of remapped LPNs plus dead intra-batch duplicates), the bulk
        analogue of :meth:`map`'s old-PPN return.
        """
        lpns = np.asarray(lpns, dtype=np.int64)
        ppns = np.asarray(ppns, dtype=np.int64)
        if lpns.size != ppns.size:
            raise ValueError("lpns/ppns length mismatch")
        if lpns.size == 0:
            return np.zeros(0, dtype=np.int64)
        if lpns.min() < 0 or lpns.max() >= self.logical_pages:
            raise IndexError("bulk_map lpn range out of bounds")
        if ppns.min() < 0 or ppns.max() >= self.geometry.total_pages:
            raise IndexError("bulk_map ppn out of bounds")
        if _has_duplicates(ppns):
            raise ValueError("bulk_map duplicate target ppns in batch")
        if np.any(self._p2l[ppns] != UNMAPPED):
            raise ValueError("bulk_map target ppns already mapped")
        win_lpns, win_ppns = lpns, ppns
        dead_ppns = ppns[:0]
        if _has_duplicates(lpns):
            # Last write wins: keep the final occurrence of each LPN.  The
            # first index into the reversed array is the last index into
            # the original one.
            rev_first = np.unique(lpns[::-1], return_index=True)[1]
            winner_idx = np.sort(lpns.size - 1 - rev_first)
            win_lpns = lpns[winner_idx]
            win_ppns = ppns[winner_idx]
            # PPNs of losing duplicates never become valid.
            dead_mask = np.ones(lpns.size, dtype=bool)
            dead_mask[winner_idx] = False
            dead_ppns = ppns[dead_mask]
        # Invalidate prior mappings of remapped LPNs (same as map()).
        old_ppns = self._l2p[win_lpns]
        old_mapped = old_ppns[old_ppns != UNMAPPED]
        if old_mapped.size:
            self._p2l[old_mapped] = UNMAPPED
            blocks = self._count_valid(old_mapped, -1)
            if np.any(self._valid_per_block[blocks] < 0):
                raise AssertionError("valid count underflow in bulk_map_pairs")
        self._l2p[win_lpns] = win_ppns
        self._p2l[win_ppns] = win_lpns
        self._count_valid(win_ppns, 1)
        return np.sort(np.concatenate([old_mapped, dead_ppns], dtype=np.int64))

    def _count_valid(self, ppns: np.ndarray, sign: int) -> np.ndarray:
        """Add ``sign`` to the valid count of its block once per page of
        ``ppns`` (a batch is mostly many pages of few blocks: one counted
        add per block, not ``np.add.at``); returns the distinct blocks."""
        blocks, pages = np.unique(
            ppns // self.geometry.pages_per_block, return_counts=True
        )
        self._valid_per_block[blocks] += sign * pages
        return blocks

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
