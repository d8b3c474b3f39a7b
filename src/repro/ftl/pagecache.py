"""SSD-internal DRAM page cache (read cache for flash pages).

A fully associative LRU cache keyed by LPN, with pinning so pages stay
resident while a DMA or translation step is reading them.  Capacity is in
pages; the Cosmos+ board's DRAM is shared between this cache, the SLS
request buffer, and the SSD-side embedding cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict

from ..params import Count, checked
from ..sim.resettable import register_resettable

__all__ = ["PageCache"]


class PageCache:
    """LRU page cache with pin counts."""

    @checked
    def __init__(self, capacity_pages: Count):
        self.capacity = capacity_pages
        # Cached pages by LPN, least recently used first.  Readers that
        # must not touch recency or statistics (``GreedyFtl.ndp_read``)
        # probe it directly; only this class writes it.
        self.entries: "OrderedDict[int, Any]" = OrderedDict()
        self._pins: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insert_failures = 0
        register_resettable(self)

    # ------------------------------------------------------------------
    def lookup(self, lpn: int) -> tuple[bool, Any]:
        """Probe the cache; counts hit/miss and refreshes recency on hit."""
        if self.capacity == 0:
            self.misses += 1
            return False, None
        if lpn in self.entries:
            self.hits += 1
            self.entries.move_to_end(lpn)
            return True, self.entries[lpn]
        self.misses += 1
        return False, None

    def peek(self, lpn: int) -> tuple[bool, Any]:
        """Probe without recency update or stat counting."""
        if lpn in self.entries:
            return True, self.entries[lpn]
        return False, None

    def insert(self, lpn: int, content: Any) -> None:
        """Insert/refresh ``lpn``; evicts LRU unpinned entries as needed."""
        if self.capacity == 0:
            return
        if lpn in self.entries:
            self.entries.move_to_end(lpn)
            self.entries[lpn] = content
            return
        entries = self.entries
        while len(entries) >= self.capacity:
            if not self._pins:
                entries.popitem(last=False)
                self.evictions += 1
            elif not self._evict_one():
                self.insert_failures += 1
                return  # everything pinned; drop the insert
        entries[lpn] = content

    def _evict_one(self) -> bool:
        """Evict the least recently used unpinned page, if there is one."""
        for lpn in self.entries:
            if self._pins.get(lpn, 0) == 0:
                del self.entries[lpn]
                self.evictions += 1
                return True
        return False

    def invalidate(self, lpn: int) -> None:
        self.entries.pop(lpn, None)

    # ------------------------------------------------------------------
    def pin(self, lpn: int) -> None:
        self._pins[lpn] = self._pins.get(lpn, 0) + 1

    def unpin(self, lpn: int) -> None:
        count = self._pins.get(lpn, 0)
        if count <= 1:
            self._pins.pop(lpn, None)
        else:
            self._pins[lpn] = count - 1

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insert_failures = 0
