"""SSD-side direct-mapped embedding cache (Section 4.2).

The FTL runs on a simple CPU without dynamic allocation, so the SSD-side
cache is direct mapped: no LRU metadata updates on access, one tag
compare per probe.  Entries are whole embedding vectors keyed by
``(table, row)``.

Tags live in dense int64 arrays and vectors in one float32 block, so the
NDP engine probes a whole SLS config's input list in a few vector ops
(:meth:`probe_many`) — bit-equivalent to the element-wise loop it
replaced.  Caches holding mixed vector widths (multiple models with
different embedding dims on one device) transparently fall back to
per-slot object storage.

An insert has two halves.  :meth:`insert_tags` claims the rows' slots —
everything that decides which later probe hits, and every counter —
and :meth:`fill_many` stores the vectors of the rows that still hold
theirs.  The NDP engine tags at a page's translate instant and fills at
its entry's gather; in between the vectors are *owed*, and the cache
never hands one out: every reader first calls :attr:`settle`, the
tagger's promise to fill what it owes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..sim.resettable import register_resettable
from .vecops import group_slices

__all__ = ["DirectMappedEmbeddingCache"]

_HASH_MULT = 2654435761
_TABLE_MULT = 97
# insert_tags batches up to this size take the per-row loop: ~1 us a
# row against ~35 us flat for the np.unique + group_slices route
# (crossover at 24-32 rows); one-row-per-page tables tag one row a page.
_ELEMENTWISE_MAX = 16


class DirectMappedEmbeddingCache:
    """Direct-mapped vector cache with a fixed slot count."""

    def __init__(self, slots: int):
        self.slots = slots
        self._tag_table = np.full(slots, -1, dtype=np.int64)
        self._tag_row = np.full(slots, -1, dtype=np.int64)
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

    def _slots_of(self, table_key: int, rows: np.ndarray) -> np.ndarray:
        return (rows * _HASH_MULT + table_key * _TABLE_MULT) % self.slots

    def _get_value(self, slot: int) -> np.ndarray:
        if self._values_obj is not None:
            return self._values_obj[slot]
        return self._values[slot]

    def _ensure_storage(self, vector: np.ndarray) -> None:
        if self._values_obj is not None:
            return
        if self._values is None:
            self._values = np.zeros(
                (self.slots,) + np.asarray(vector).shape, dtype=np.float32
            )
        elif self._values.shape[1:] != np.asarray(vector).shape:
            # Mixed vector widths: migrate to per-slot object storage.
            occupied = np.flatnonzero(self._tag_row != -1)
            self._values_obj = {int(s): self._values[s] for s in occupied}
            self._values = None

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
        self.insert_many(table_key, [row], np.asarray(vector)[None])

    # ------------------------------------------------------------------
    # Batch interface
    # ------------------------------------------------------------------
    def probe_many(
        self, table_key: int, rows: np.ndarray
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Probe a batch of rows; equivalent to ``lookup`` per row, in order.

        Returns ``(hit_mask, vectors)``, ``vectors`` holding the cached
        values of the hit positions only (``None`` when nothing hit).
        """
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        n = rows.size
        if self.slots == 0 or self._occupied == 0 or n == 0:
            self.misses += n
            return np.zeros(n, dtype=bool), None
        if self.settle is not None:
            self.settle()
        slots = self._slots_of(table_key, rows)
        hit_mask = (self._tag_row[slots] == rows) & (self._tag_table[slots] == table_key)
        n_hits = int(np.count_nonzero(hit_mask))
        self.hits += n_hits
        self.misses += n - n_hits
        if n_hits == 0:
            return hit_mask, None
        hit_slots = slots[hit_mask]
        if self._values_obj is not None:
            vectors = np.stack([self._values_obj[int(s)] for s in hit_slots])
        else:
            vectors = self._values[hit_slots]
        return hit_mask, vectors

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
        self.insert_tags(table_key, rows)
        self.fill_many(table_key, rows, vectors)

    def insert_tags(self, table_key: int, rows: np.ndarray) -> None:
        """Claim the slots of ``rows`` in order; their vectors are owed.

        The tag half of ``insert_many``: the first occurrence of each
        row takes its slot, later occurrences are ignored.  Conflict
        accounting matches the sequential outcome, including batch
        entries displacing each other when distinct rows hash to one
        slot.  Small batches run exactly that loop; larger ones the
        equivalent vector route.
        """
        if self.slots == 0 or len(rows) == 0:
            return
        if len(rows) <= _ELEMENTWISE_MAX:
            tag_table, tag_row = self._tag_table, self._tag_row
            seen = set()
            for row in np.asarray(rows).tolist():
                if row in seen:
                    continue
                seen.add(row)
                slot = self._slot(table_key, row)
                old_row = tag_row[slot]
                if old_row == -1:
                    self._occupied += 1
                elif old_row != row or tag_table[slot] != table_key:
                    self.conflict_evictions += 1
                tag_table[slot] = table_key
                tag_row[slot] = row
            self.inserts += len(seen)
            return
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        # First occurrence of each row, preserving arrival order.
        _uniq, first = np.unique(rows, return_index=True)
        urows = rows[np.sort(first)]
        slots = self._slots_of(table_key, urows)
        uniq_slots, order, bounds = group_slices(slots)
        counts = np.diff(bounds)
        # Entries after the first in one slot each displace a different row
        # (rows are unique here), plus the first displaces any pre-existing
        # foreign tag.
        conflicts = int((counts - 1).sum())
        existing_row = self._tag_row[uniq_slots]
        existing_table = self._tag_table[uniq_slots]
        occupied = existing_row != -1
        first_rows = urows[order[bounds[:-1]]]
        conflicts += int(
            np.count_nonzero(
                occupied & ((existing_row != first_rows) | (existing_table != table_key))
            )
        )
        self.conflict_evictions += conflicts
        self.inserts += int(urows.size)
        self._occupied += int(np.count_nonzero(~occupied))
        self._tag_table[uniq_slots] = table_key
        self._tag_row[uniq_slots] = urows[order[bounds[1:] - 1]]

    def fill_many(self, table_key: int, rows: np.ndarray, vectors: np.ndarray) -> None:
        """Store the vectors owed to ``rows`` since their ``insert_tags``.

        Only a row that still holds its slot is written (the first
        occurrence's vector, as ``insert`` per first occurrence stores);
        where another row has taken the slot since, the vector is
        dropped — that row's tagger owes the slot's vector now.
        """
        if self.slots == 0 or len(rows) == 0:
            return
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        vectors = np.asarray(vectors)
        self._ensure_storage(vectors[0])
        slots = self._slots_of(table_key, rows)
        held = np.flatnonzero(
            (self._tag_row[slots] == rows) & (self._tag_table[slots] == table_key)
        )
        # One row holds a slot, so a repeated slot is a repeated row.
        uniq_slots, first = np.unique(slots[held], return_index=True)
        value_src = held[first]
        if self._values_obj is not None:
            for s, v in zip(uniq_slots.tolist(), value_src.tolist()):
                self._values_obj[s] = vectors[v]
        else:
            self._values[uniq_slots] = vectors[value_src]

    # ------------------------------------------------------------------
    # Invalidation (live update write-through)
    # ------------------------------------------------------------------
    def invalidate(self, table_key: int, row: int) -> bool:
        """Drop ``(table, row)`` if resident; returns whether it was."""
        if self.slots == 0 or self._occupied == 0:
            return False
        slot = self._slot(table_key, row)
        if self._tag_row[slot] != row or self._tag_table[slot] != table_key:
            return False
        self._tag_table[slot] = -1
        self._tag_row[slot] = -1
        self._occupied -= 1
        self.invalidations += 1
        return True

    def invalidate_many(self, table_key: int, rows: np.ndarray) -> int:
        """Invalidate a batch of rows; returns how many were resident.

        Direct mapping means at most one of several distinct rows
        hashing to a slot is resident, so a vectorized unique-row tag
        compare matches the sequential loop exactly.
        """
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        if self.slots == 0 or self._occupied == 0 or rows.size == 0:
            return 0
        urows = np.unique(rows)
        slots = self._slots_of(table_key, urows)
        mask = (self._tag_row[slots] == urows) & (self._tag_table[slots] == table_key)
        dropped = int(np.count_nonzero(mask))
        if dropped:
            hit_slots = slots[mask]
            self._tag_table[hit_slots] = -1
            self._tag_row[hit_slots] = -1
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
        self._tag_table.fill(-1)
        self._tag_row.fill(-1)
        self._values = None
        self._values_obj = None
        self._occupied = 0
        self.reset_stats()
