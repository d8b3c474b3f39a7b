"""SSD-side direct-mapped embedding cache (Section 4.2).

The FTL runs on a simple CPU without dynamic allocation, so the SSD-side
cache is direct mapped: no LRU metadata updates on access, one tag
compare per probe.  Entries are whole embedding vectors keyed by
``(table, row)``.

Tags live in two lists of Python ints and vectors in one float32 block.
Every batch operation is one pass over its rows' ints — a probe plus
one gather of the hit vectors, a claim with no numpy call at all, a
fill plus one scatter — whatever the batch size.  Caches holding mixed
vector widths (multiple models with different embedding dims on one
device) transparently fall back to per-slot object storage.

The slot of ``(table, row)`` is ``(row * 2654435761 + table * 97) %
slots`` in Python ints, which never wrap; it equals the same formula in
numpy int64 (the cache's earlier form, and every pinned digest's) only
while ``row * 2654435761 + table * 97 < 2**63``, i.e. for rows below
about 3.47e9.  The tables built here hold far fewer (the benchmark's
409,600); ``tests/core/test_embcache.py`` pins the bound.

An insert has two halves.  :meth:`insert_tags` claims the rows' slots —
everything that decides which later probe hits, and every counter —
and :meth:`fill_many` stores the vectors of the rows that still hold
theirs.  The NDP engine tags at a page's translate instant and fills at
its entry's gather; in between the vectors are *owed*, and the cache
never hands one out: every reader first calls :attr:`settle`, the
tagger's promise to fill what it owes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.resettable import register_resettable

__all__ = ["DirectMappedEmbeddingCache"]

_HASH_MULT = 2654435761
_TABLE_MULT = 97


class DirectMappedEmbeddingCache:
    """Direct-mapped vector cache with a fixed slot count."""

    def __init__(self, slots: int):
        self.slots = slots
        self._tag_table = [-1] * slots
        self._tag_row = [-1] * slots
        self._values: Optional[np.ndarray] = None   # [slots, dim] dense storage
        self._values_obj: Optional[Dict[int, np.ndarray]] = None  # mixed-dim fallback
        self._occupied = 0
        self.hits = 0
        self.misses = 0
        self.conflict_evictions = 0
        self.inserts = 0
        self.invalidations = 0
        # Called before any vector is read: fills what insert_tags left owed.
        self.settle: Optional[Callable[[], None]] = None
        register_resettable(self)

    # ------------------------------------------------------------------
    def _slot(self, table_key: int, row: int) -> int:
        # Simple modular hash: cheap enough for firmware, spreads both the
        # row index and the table id.
        return (row * _HASH_MULT + table_key * _TABLE_MULT) % self.slots

    def _get_value(self, slot: int) -> np.ndarray:
        if self._values_obj is not None:
            return self._values_obj[slot]
        return self._values[slot]

    def _ensure_storage(self, shape: Tuple[int, ...]) -> None:
        if self._values_obj is not None:
            return
        if self._values is None:
            self._values = np.zeros((self.slots,) + shape, dtype=np.float32)
        elif self._values.shape[1:] != shape:
            # Mixed vector widths: migrate to per-slot object storage.
            self._values_obj = {
                slot: self._values[slot] for slot, row in enumerate(self._tag_row) if row != -1
            }
            self._values = None

    @property
    def tags(self) -> Dict[int, Tuple[int, int]]:
        """Slot -> ``(table, row)`` of every tagged slot, in slot order (a
        copy: the cache's own tags are not exposed)."""
        return {
            slot: (table, row)
            for slot, (table, row) in enumerate(zip(self._tag_table, self._tag_row))
            if row != -1
        }

    # ------------------------------------------------------------------
    # Scalar interface
    # ------------------------------------------------------------------
    def lookup(self, table_key: int, row: int) -> Optional[np.ndarray]:
        if self.slots == 0:
            self.misses += 1
            return None
        if self.settle is not None:
            self.settle()
        slot = self._slot(table_key, row)
        if self._tag_row[slot] == row and self._tag_table[slot] == table_key:
            self.hits += 1
            return self._get_value(slot)
        self.misses += 1
        return None

    def insert(self, table_key: int, row: int, vector: np.ndarray) -> None:
        self.insert_many(table_key, [int(row)], np.asarray(vector)[None])

    # ------------------------------------------------------------------
    # Batch interface
    # ------------------------------------------------------------------
    def probe_many(
        self, table_key: int, rows: np.ndarray
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Probe an array of rows; equivalent to ``lookup`` per row, in order.

        Returns ``(hit_mask, vectors)``, ``vectors`` holding the cached
        values of the hit positions only (``None`` when nothing hit).
        """
        n = len(rows)
        if self.slots == 0 or self._occupied == 0 or n == 0:
            self.misses += n
            return np.zeros(n, dtype=bool), None
        if self.settle is not None:
            self.settle()
        tag_table, tag_row, slots = self._tag_table, self._tag_row, self.slots
        base = table_key * _TABLE_MULT
        mask = []
        hit_slots = []
        for row in rows.tolist():
            slot = (row * _HASH_MULT + base) % slots
            hit = tag_row[slot] == row and tag_table[slot] == table_key
            mask.append(hit)
            if hit:
                hit_slots.append(slot)
        n_hits = len(hit_slots)
        self.hits += n_hits
        self.misses += n - n_hits
        hit_mask = np.fromiter(mask, bool, n)
        if n_hits == 0:
            return hit_mask, None
        if self._values_obj is not None:
            return hit_mask, np.stack([self._values_obj[s] for s in hit_slots])
        return hit_mask, self._values.take(hit_slots, axis=0)

    def lookup_many(
        self, table_key: int, rows: np.ndarray
    ) -> tuple[np.ndarray, List[Optional[np.ndarray]]]:
        """Per-row probe returning vectors aligned to ``rows`` (None = miss)."""
        hit_mask, hit_vectors = self.probe_many(table_key, np.asarray(rows))
        vectors: List[Optional[np.ndarray]] = [None] * len(rows)
        for j, i in enumerate(np.flatnonzero(hit_mask)):
            vectors[int(i)] = hit_vectors[j]
        return hit_mask, vectors

    def insert_many(self, table_key: int, rows: np.ndarray, vectors: np.ndarray) -> None:
        """Insert rows in order, skipping repeats of a row within the batch.

        Equivalent to one ``insert`` per first occurrence of a row (the
        paper's firmware dedupes per page); later occurrences are ignored.
        """
        rows = np.asarray(rows).tolist()
        self.insert_tags(table_key, rows)
        self.fill_many(table_key, rows, vectors)

    def insert_tags(self, table_key: int, rows: Sequence[int]) -> None:
        """Claim the slots of ``rows`` in order; their vectors are owed.

        The tag half of ``insert_many``, over Python ints: the first
        occurrence of each row takes its slot, later occurrences are
        ignored, and distinct rows hashing to one slot displace each
        other in turn, each counted as the sequential ``insert`` would.
        """
        if self.slots == 0:
            return
        tag_table, tag_row, slots = self._tag_table, self._tag_row, self.slots
        base = table_key * _TABLE_MULT
        firsts = dict.fromkeys(rows)
        claimed = conflicts = 0
        for row in firsts:
            slot = (row * _HASH_MULT + base) % slots
            old_row = tag_row[slot]
            if old_row == -1:
                claimed += 1
            elif old_row != row or tag_table[slot] != table_key:
                conflicts += 1
            tag_table[slot] = table_key
            tag_row[slot] = row
        self._occupied += claimed
        self.conflict_evictions += conflicts
        self.inserts += len(firsts)

    def fill_many(self, table_key: int, rows: Sequence[int], vectors: np.ndarray) -> None:
        """Store the vectors owed to ``rows`` since their ``insert_tags``.

        ``rows`` are Python ints and ``vectors`` an array whose row
        ``i`` is owed to ``rows[i]``.  Only a row that still holds its
        slot is written (the first occurrence's vector, as ``insert``
        per first occurrence stores); where another row has taken the
        slot since, the vector is dropped — that row's tagger owes the
        slot's vector now.
        """
        if self.slots == 0 or len(rows) == 0:
            return
        self._ensure_storage(vectors.shape[1:])
        tag_table, tag_row, slots = self._tag_table, self._tag_row, self.slots
        base = table_key * _TABLE_MULT
        # Slot -> position of the first row that fills it: one row holds
        # a slot, so a repeated slot is a repeated row.
        fills: Dict[int, int] = {}
        for i, row in enumerate(rows):
            slot = (row * _HASH_MULT + base) % slots
            if tag_row[slot] == row and tag_table[slot] == table_key and slot not in fills:
                fills[slot] = i
        if not fills:
            return
        if self._values_obj is not None:
            for slot, i in fills.items():
                self._values_obj[slot] = vectors[i]
        else:
            self._values[np.array(list(fills))] = vectors.take(list(fills.values()), axis=0)

    # ------------------------------------------------------------------
    # Invalidation (live update write-through)
    # ------------------------------------------------------------------
    def invalidate(self, table_key: int, row: int) -> bool:
        """Drop ``(table, row)`` if resident; returns whether it was."""
        return self.invalidate_many(table_key, [int(row)]) == 1

    def invalidate_many(self, table_key: int, rows: np.ndarray) -> int:
        """Invalidate a batch of rows; returns how many were resident."""
        if self.slots == 0 or self._occupied == 0:
            return 0
        tag_table, tag_row, slots = self._tag_table, self._tag_row, self.slots
        base = table_key * _TABLE_MULT
        dropped = 0
        for row in dict.fromkeys(np.asarray(rows).tolist()):
            slot = (row * _HASH_MULT + base) % slots
            if tag_row[slot] == row and tag_table[slot] == table_key:
                tag_table[slot] = tag_row[slot] = -1
                dropped += 1
        self._occupied -= dropped
        self.invalidations += dropped
        return dropped

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return self._occupied

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.conflict_evictions = 0
        self.inserts = 0
        self.invalidations = 0

    def clear(self) -> None:
        self._tag_table = [-1] * self.slots
        self._tag_row = [-1] * self.slots
        self._values = None
        self._values_obj = None
        self._occupied = 0
        self.reset_stats()
