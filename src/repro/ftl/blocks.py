"""Block allocation for the log-structured FTL.

Free blocks are pooled per die; the allocator keeps one active write block
per die and stripes consecutive page allocations across dies (channel
rotating fastest) so sequential writes exploit channel parallelism, as the
Cosmos+ greedy FTL does.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

import numpy as np

from ..flash.geometry import FlashGeometry

__all__ = ["BlockManager", "OutOfSpaceError"]


class OutOfSpaceError(RuntimeError):
    """No free blocks available (GC failed to keep up or space exhausted)."""


class BlockManager:
    """Tracks free/active/used blocks and erase counts per die."""

    def __init__(self, geometry: FlashGeometry):
        self.geometry = geometry
        self._free: List[Deque[int]] = [deque() for _ in range(geometry.dies)]
        self._active_block: List[Optional[int]] = [None] * geometry.dies
        self._active_page: List[int] = [0] * geometry.dies
        self._used: set[int] = set()
        self.erase_counts = np.zeros(geometry.total_blocks, dtype=np.int64)
        self._next_die = 0
        for block_id in range(geometry.total_blocks):
            die = block_id // geometry.blocks_per_die
            self._free[die].append(block_id)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate_page(self, die: Optional[int] = None, reserve: int = 0) -> int:
        """Return the next free PPN, striping across dies when unspecified.

        ``reserve`` free blocks per die are kept back (foreground writes
        pass ``reserve=1`` so garbage collection always has a migration
        target; GC itself allocates with ``reserve=0``).
        """
        if die is None:
            for _ in range(self.geometry.dies):
                candidate = self._next_die
                self._next_die = (self._next_die + 1) % self.geometry.dies
                if self._die_allocatable(candidate, reserve):
                    die = candidate
                    break
            if die is None:
                raise OutOfSpaceError(
                    f"no die can allocate (reserve={reserve}); GC behind"
                )
        block_id = self._active_block[die]
        if block_id is None:
            block_id = self._open_block(die, reserve)
        page = self._active_page[die]
        ppn = self.geometry.first_ppn_of_block(block_id) + page
        self._active_page[die] += 1
        if self._active_page[die] >= self.geometry.pages_per_block:
            self._active_block[die] = None
            self._active_page[die] = 0
        return ppn

    def _die_allocatable(self, die: int, reserve: int) -> bool:
        if self._active_block[die] is not None:
            return True
        return len(self._free[die]) > reserve

    def can_allocate(self, reserve: int = 0) -> bool:
        return any(
            self._die_allocatable(d, reserve) for d in range(self.geometry.dies)
        )

    def _open_block(self, die: int, reserve: int = 0) -> int:
        if len(self._free[die]) <= reserve:
            raise OutOfSpaceError(
                f"die {die} has no free blocks beyond reserve {reserve}"
            )
        block_id = self._free[die].popleft()
        self._used.add(block_id)
        self._active_block[die] = block_id
        self._active_page[die] = 0
        return block_id

    def reserve_blocks(self, count: int) -> List[List[int]]:
        """Take ``count`` whole free blocks round-robin across dies (preload).

        Round ``r`` takes the next free block of every die that still has
        one, die 0 first, until ``count`` are taken.  Returns each die's
        blocks in the order taken (empty for a die that gave none);
        refuses, changing nothing, when fewer than ``count`` are free.
        """
        free = np.array([len(queue) for queue in self._free])
        if count > free.sum():
            raise OutOfSpaceError(
                f"cannot reserve {count} blocks ({free.sum()} available)"
            )
        # taken_by_round[r]: blocks taken once rounds 0..r are complete.
        # Take every round that fits whole, then one more block from each
        # of the first dies that still have one.
        taken_by_round = np.minimum(free[:, None], np.arange(1, free.max() + 1)).sum(0)
        rounds = int(np.searchsorted(taken_by_round, count, side="right"))
        takes = np.minimum(free, rounds)
        takes[np.flatnonzero(free > rounds)[: count - takes.sum()]] += 1
        per_die = [
            [queue.popleft() for _ in range(take)]
            for queue, take in zip(self._free, takes.tolist())
        ]
        for blocks in per_die:
            self._used.update(blocks)
        return per_die

    # ------------------------------------------------------------------
    # Reclamation
    # ------------------------------------------------------------------
    def release_block(self, block_id: int) -> None:
        """Return an erased block to its die's free pool."""
        if block_id in self._used:
            self._used.discard(block_id)
        self.erase_counts[block_id] += 1
        die = block_id // self.geometry.blocks_per_die
        self._free[die].append(block_id)

    def used_blocks(self) -> List[int]:
        return sorted(self._used)

    def closed_blocks(self) -> List[int]:
        """Used blocks that are not currently active write blocks."""
        active = set(b for b in self._active_block if b is not None)
        return [b for b in sorted(self._used) if b not in active]

    def free_blocks_in_die(self, die: int) -> int:
        return len(self._free[die])

    @property
    def total_free_blocks(self) -> int:
        return sum(len(q) for q in self._free)

    @property
    def min_free_per_die(self) -> int:
        return min(len(q) for q in self._free)

    def wear_spread(self) -> int:
        """Max-min erase count across blocks (wear-leveling metric)."""
        return int(self.erase_counts.max() - self.erase_counts.min())
