"""Host-side embedding caches.

``SetAssociativeLru`` is the conventional host DRAM software cache the
baseline uses (the paper's characterization and Fig 10 baseline use a
16-way LRU).  ``StaticPartitionCache`` is RecSSD's host-DRAM strategy:
because the NDP operator returns pre-accumulated results it cannot
populate an LRU cache, so the hottest rows (from input profiling) are
statically pinned in host DRAM instead (Section 4.2).

Both caches are array-native: tags, LRU stamps and values live in dense
numpy storage so the serving hot path can probe a whole batch of rows in
a handful of vector operations (``lookup_many`` / ``insert_many`` /
``partition_mask``), while the LRU's per-key entry points stay O(1)
through a key -> slot dict.  The behaviour is bit-identical to the
dict-model caches kept in ``tests/embedding/reference_caches.py`` (see
``tests/hotpath/test_cache_equivalence.py``).

The LRU's refills may be *owed*: ``insert_later`` only records a batch,
and everything owed lands, in the order it was handed over, as one
``insert_many`` before the next method or property that reads or writes
tags, stamps, values or ``evictions`` does anything else.  No caller can
tell an owed refill from one already made — in particular an
``invalidate`` always finds the refill it is meant to drop.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..params import Count, PosCount, checked
from ..sim.resettable import register_resettable

__all__ = ["SetAssociativeLru", "StaticPartitionCache", "profile_hot_rows"]


def _count_unique(keys: np.ndarray) -> int:
    """How many distinct values ``keys`` holds (sorts ``keys`` in place)."""
    keys.sort()
    return int(keys.size and 1 + (keys[1:] != keys[:-1]).sum())


class SetAssociativeLru:
    """Set-associative LRU cache of row -> vector, with batch probes.

    Storage is one tag/stamp slot per (set, way): ``_tags`` holds the key
    (-1 = empty), ``_stamps`` a monotonically increasing access counter
    (the LRU order), and ``_values`` the cached vectors, lazily allocated
    from the first inserted value's shape/dtype (one cache caches one
    table's vectors).  Keys must be non-negative integers.

    Everything below that touches that state (or ``evictions``, which a
    refill moves) starts by settling what ``insert_later`` left owed.
    """

    @checked
    def __init__(self, capacity: Count, ways: PosCount = 16):
        self.capacity = capacity
        self.ways = min(ways, capacity) if capacity else ways
        # Round sets UP: flooring capacity // ways silently shrinks any
        # capacity that is not a ways multiple (e.g. capacity=40, ways=16
        # used to build a 32-entry cache) — enough to turn a
        # cyclic-reuse trace that should hit ~100% into pure thrash.
        self.sets = (
            max(1, -(-capacity // max(1, self.ways))) if capacity else 0
        )
        self._tags = np.full((self.sets, self.ways), -1, dtype=np.int64)
        self._stamps = np.zeros((self.sets, self.ways), dtype=np.int64)
        self._values: Optional[np.ndarray] = None        # [sets*ways, *vshape]
        self._slot_of: Dict[int, int] = {}               # key -> set*ways + way
        self._free: List[List[int]] = [
            list(range(self.ways - 1, -1, -1)) for _ in range(self.sets)
        ]
        self._counter = 0
        # Refill batches handed over by insert_later and not yet made.
        self._owed_keys: List[np.ndarray] = []
        self._owed_values: List[np.ndarray] = []
        self.hits = 0
        self.misses = 0
        self._evictions = 0
        self.invalidations = 0
        register_resettable(self)

    # ------------------------------------------------------------------
    # Owed refills
    # ------------------------------------------------------------------
    def insert_later(self, keys: np.ndarray, values: np.ndarray) -> None:
        """``insert_many(keys, values)``, made no later than the next look
        at the cache.  The arrays are kept, not copied: the caller must
        not write to them afterwards."""
        if self.capacity and keys.size:
            self._owed_keys.append(keys)
            self._owed_values.append(values)

    def _settle(self) -> None:
        keys, values = self._owed_keys, self._owed_values
        self._owed_keys, self._owed_values = [], []
        if len(keys) == 1:
            self.insert_many(keys[0], values[0])
        else:
            self.insert_many(np.concatenate(keys), np.concatenate(values))

    @property
    def evictions(self) -> int:
        if self._owed_keys:
            self._settle()
        return self._evictions

    # ------------------------------------------------------------------
    def _ensure_storage(self, value: np.ndarray) -> None:
        value = np.asarray(value)
        if self._values is None:
            self._values = np.zeros(
                (self.sets * self.ways,) + value.shape, dtype=value.dtype
            )
        elif self._values.shape[1:] != value.shape:
            raise ValueError(
                f"cache values must share one shape: got {value.shape}, "
                f"cache holds {self._values.shape[1:]}"
            )

    # ------------------------------------------------------------------
    # Scalar interface
    # ------------------------------------------------------------------
    def lookup(self, key: int) -> Optional[np.ndarray]:
        if self._owed_keys:
            self._settle()
        slot = self._slot_of.get(key)
        if slot is None:
            self.misses += 1
            return None
        self._counter += 1
        self._stamps.flat[slot] = self._counter
        self.hits += 1
        return self._values[slot]

    def insert(self, key: int, value: np.ndarray) -> None:
        if self.capacity == 0:
            return
        if self._owed_keys:
            self._settle()
        self._ensure_storage(value)
        self._counter += 1
        slot = self._slot_of.get(key)
        if slot is None:
            slot = self._allocate_slot(int(key) % self.sets, int(key))
        self._stamps.flat[slot] = self._counter
        self._values[slot] = value

    def _allocate_slot(self, s: int, key: int) -> int:
        """Claim a way in set ``s`` for ``key`` (free way, else evict LRU)."""
        free = self._free[s]
        if free:
            w = free.pop()
        else:
            w = int(self._stamps[s].argmin())
            victim = int(self._tags[s, w])
            del self._slot_of[victim]
            self._evictions += 1
        self._tags[s, w] = key
        slot = s * self.ways + w
        self._slot_of[key] = slot
        return slot

    def invalidate(self, key: int) -> bool:
        """Drop ``key`` if cached (a row overwritten by a live update).

        The freed way goes to the back of the set's freelist, so it is
        the next way allocated in that set; returns whether the key was
        resident.
        """
        if self._owed_keys:
            self._settle()
        slot = self._slot_of.pop(key, None)
        if slot is None:
            return False
        s, w = slot // self.ways, slot % self.ways
        self._tags[s, w] = -1
        self._free[s].append(w)
        self.invalidations += 1
        return True

    def invalidate_many(self, keys: np.ndarray) -> int:
        """Invalidate a batch; equivalent to ``invalidate`` per key, in order."""
        dropped = 0
        for key in np.asarray(keys, dtype=np.int64).tolist():
            if self.invalidate(key):
                dropped += 1
        return dropped

    def __contains__(self, key: int) -> bool:
        if self._owed_keys:
            self._settle()
        return key in self._slot_of

    # ------------------------------------------------------------------
    # Batch interface
    # ------------------------------------------------------------------
    def lookup_many(self, keys: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Probe a batch; equivalent to ``lookup`` per key, in order.

        Returns ``(hit_mask, vectors)`` with ``vectors`` holding the
        cached values of the hit positions (``None`` when nothing hit).
        Stats and LRU stamps match the sequential outcome exactly:
        membership cannot change mid-batch, and for repeated keys the
        last probe's recency wins — which is what element-order fancy
        assignment produces.
        """
        if self._owed_keys:
            self._settle()
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        n = keys.size
        if self.capacity == 0 or not self._slot_of or n == 0:
            self.misses += n
            return np.zeros(n, dtype=bool), None
        sets = keys % self.sets
        eq = self._tags[sets] == keys[:, None]
        hit_mask = eq.any(axis=1)
        hit_idx = np.flatnonzero(hit_mask)
        n_hits = hit_idx.size
        self.hits += int(n_hits)
        self.misses += n - int(n_hits)
        if n_hits == 0:
            self._counter += n
            return hit_mask, None
        slots = sets[hit_idx] * self.ways + eq[hit_idx].argmax(axis=1)
        self._stamps.flat[slots] = self._counter + 1 + hit_idx
        self._counter += n
        return hit_mask, self._values[slots]

    def probe_filter(self, keys: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """The SSD backend's cache filter, as one batch.

        Equivalent to, per element in order: skip, and credit a hit for,
        a repeat of a key that already missed earlier in the batch (a
        batch operator probes every lookup before any fetch completes;
        under the real system's streaming execution the repeat would
        have hit); otherwise ``lookup``.  Returns ``(hit_mask,
        vectors_for_hits)``.  Membership cannot change mid-batch, so the
        hit mask is a pure membership test; stats decompose as
        ``hits += #hit-elements + #repeat-misses`` and ``misses +=
        #unique-missing-keys``.
        """
        if self._owed_keys:
            self._settle()
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        n = keys.size
        if self.capacity == 0 or not self._slot_of or n == 0:
            uniq_missing = _count_unique(keys.copy())
            self.misses += uniq_missing
            self.hits += n - uniq_missing
            return np.zeros(n, dtype=bool), None
        sets = keys % self.sets
        eq = self._tags[sets] == keys[:, None]
        hit_mask = np.logical_or.reduce(eq, axis=1)
        hit_idx = hit_mask.nonzero()[0]
        n_miss = n - hit_idx.size
        uniq_missing = _count_unique(keys[~hit_mask])
        self.hits += int(hit_idx.size) + (n_miss - uniq_missing)
        self.misses += uniq_missing
        if hit_idx.size == 0:
            self._counter += n
            return hit_mask, None
        slots = sets[hit_idx] * self.ways + eq[hit_idx].argmax(axis=1)
        self._stamps.flat[slots] = self._counter + 1 + hit_idx
        self._counter += n
        return hit_mask, self._values[slots]

    def insert_many(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert a batch; equivalent to ``insert`` per row, in order.

        Tag/LRU bookkeeping runs element-wise (dict and freelist updates
        are inherently per-key; a stamp is written before the next key, as
        an eviction reads its set's stamps) but the vector payloads are
        written in one scatter at the end, which is where the per-row cost
        was.
        """
        if self.capacity == 0 or keys.size == 0:
            return
        if self._owed_keys:
            self._settle()
        values = np.asarray(values)
        self._ensure_storage(values[0])
        slot_of = self._slot_of
        sets = self.sets
        counter = self._counter
        stamps_flat = self._stamps.reshape(-1)
        slots = []
        for key in keys.tolist():
            counter += 1
            slot = slot_of.get(key)
            if slot is None:
                slot = self._allocate_slot(key % sets, key)
            stamps_flat[slot] = counter
            slots.append(slot)
        self._counter = counter
        # Duplicate keys resolve to the same slot; element-order assignment
        # keeps the last value, matching the sequential overwrite.
        self._values[slots] = values

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        if self._owed_keys:
            self._settle()
        return len(self._slot_of)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        if self._owed_keys:
            self._settle()          # an owed refill's evictions predate the reset
        self.hits = 0
        self.misses = 0
        self._evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # Equivalence-test hooks (mirror the dict-model reference's)
    # ------------------------------------------------------------------
    def contents(self) -> Dict[int, np.ndarray]:
        """Key -> value snapshot."""
        if self._owed_keys:
            self._settle()
        return {key: self._values[slot] for key, slot in self._slot_of.items()}

    def recency_order(self) -> List[List[int]]:
        """Per-set keys from least- to most-recently used."""
        if self._owed_keys:
            self._settle()
        out: List[List[int]] = []
        for s in range(self.sets):
            occupied = np.flatnonzero(self._tags[s] != -1)
            order = occupied[np.argsort(self._stamps[s][occupied], kind="stable")]
            out.append([int(self._tags[s, w]) for w in order])
        return out


def profile_hot_rows(trace_rows: Iterable[np.ndarray], capacity: int) -> np.ndarray:
    """Return the ``capacity`` most frequently accessed row ids in a profile."""
    arrays = [np.asarray(a, dtype=np.int64).reshape(-1) for a in trace_rows]
    arrays = [a for a in arrays if a.size]
    if not arrays:
        return np.zeros(0, dtype=np.int64)
    ids, counts = np.unique(np.concatenate(arrays), return_counts=True)
    # Sort by (-count, row): lexsort's last key is primary; ids ascending
    # breaks count ties deterministically.
    order = np.lexsort((ids, -counts))
    return ids[order[:capacity]]


class StaticPartitionCache:
    """Read-only host partition holding profiled-hot rows of one table.

    Membership is a sorted-array ``searchsorted``, vectorized across a
    whole batch of rows.
    """

    def __init__(self, rows: np.ndarray, vectors: np.ndarray):
        rows = np.asarray(rows, dtype=np.int64)
        if vectors.shape[0] != rows.size:
            raise ValueError("rows/vectors length mismatch")
        self._vectors = np.asarray(vectors, dtype=np.float32)
        order = np.argsort(rows, kind="stable")
        self._sorted_rows = rows[order]
        self._sorted_to_idx = order
        self.hits = 0
        self.misses = 0
        self.updates = 0
        register_resettable(self)

    @classmethod
    def from_profile(cls, table, trace_rows: Iterable[np.ndarray], capacity: int):
        hot = profile_hot_rows(trace_rows, capacity)
        vectors = (
            table.get_rows(hot) if hot.size else np.zeros((0, table.spec.dim), np.float32)
        )
        return cls(hot, vectors)

    def _positions(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(insertion_pos, member_mask) of ``rows`` in the sorted id array."""
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        pos = np.searchsorted(self._sorted_rows, rows)
        if self._sorted_rows.size == 0:
            return pos, np.zeros(rows.size, dtype=bool)
        mask = self._sorted_rows[np.minimum(pos, self._sorted_rows.size - 1)] == rows
        return pos, mask

    def partition_mask(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized membership test (counts hits/misses)."""
        _pos, mask = self._positions(rows)
        n_hit = int(mask.sum())
        self.hits += n_hit
        self.misses += len(rows) - n_hit
        return mask

    def update_rows(self, rows: np.ndarray, vectors: np.ndarray) -> int:
        """Write-through for member rows: overwrite their pinned vectors.

        Membership is static (profiled-hot rows stay pinned); rows not
        in the partition are ignored.  Duplicate rows resolve in element
        order, so the last value wins — matching a sequential loop.
        Returns the number of member rows written.
        """
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.shape[0] != len(rows):
            raise ValueError("rows/vectors length mismatch")
        pos, mask = self._positions(rows)
        n_hit = int(mask.sum())
        if n_hit:
            self._vectors[self._sorted_to_idx[pos[mask]]] = vectors[mask]
            self.updates += n_hit
        return n_hit

    def vectors_for(self, rows: np.ndarray) -> np.ndarray:
        pos, mask = self._positions(rows)
        if not mask.all():
            missing = np.asarray(rows)[~mask]
            raise KeyError(f"rows not in partition: {missing[:8].tolist()}")
        return self._vectors[self._sorted_to_idx[pos]]

    @property
    def size(self) -> int:
        return self._sorted_rows.size

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.updates = 0
