"""Host-side embedding caches.

``SetAssociativeLru`` is the conventional host DRAM software cache the
baseline uses (the paper's characterization and Fig 10 baseline use a
16-way LRU).  ``StaticPartitionCache`` is RecSSD's host-DRAM strategy:
because the NDP operator returns pre-accumulated results it cannot
populate an LRU cache, so the hottest rows (from input profiling) are
statically pinned in host DRAM instead (Section 4.2).

The LRU keeps its vectors in one dense numpy array and its bookkeeping
in plain Python: a key -> slot dict, and per set a list of resident keys
from least to most recently used.  A probe or refill of one key is a
dict lookup plus a list ``remove`` / ``append`` (16 entries at most), an
eviction a ``pop(0)``, and a batch's vectors move in one fancy index —
no numpy call per key.  The static partition is array-native: a whole
batch of rows is one ``searchsorted``.  The behaviour is bit-identical
to the dict-model caches kept in ``tests/embedding/reference_caches.py``
(see ``tests/hotpath/test_cache_equivalence.py``).

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


class SetAssociativeLru:
    """Set-associative LRU cache of row -> vector, with batch probes.

    ``_slot_of`` maps each resident key to its slot (``set * ways +
    way``) in ``_values``, the cached vectors, lazily allocated from the
    first inserted value's shape/dtype (one cache caches one table's
    vectors).  ``_recency[s]`` lists set ``s``'s resident keys from least
    to most recently used, and ``_free[s]`` its unused ways.  Keys must
    be non-negative integers.

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
        self._values: Optional[np.ndarray] = None        # [sets*ways, *vshape]
        self._slot_of: Dict[int, int] = {}               # key -> set*ways + way
        self._recency: List[List[int]] = [[] for _ in range(self.sets)]
        self._free: List[List[int]] = [
            list(range(self.ways - 1, -1, -1)) for _ in range(self.sets)
        ]
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
        key = int(key)
        recency = self._recency[key % self.sets]
        recency.remove(key)
        recency.append(key)
        self.hits += 1
        return self._values[slot]

    def insert(self, key: int, value: np.ndarray) -> None:
        if self.capacity == 0:
            return
        if self._owed_keys:
            self._settle()
        self._ensure_storage(value)
        self._values[self._claim(int(key))] = value

    def _claim(self, key: int) -> int:
        """Make ``key`` its set's most recently used and return its slot:
        its own if resident, else a free way, else the LRU key's."""
        s = key % self.sets
        recency = self._recency[s]
        slot = self._slot_of.get(key)
        if slot is not None:
            recency.remove(key)
        else:
            free = self._free[s]
            if free:
                slot = s * self.ways + free.pop()
            else:
                slot = self._slot_of.pop(recency.pop(0))
                self._evictions += 1
            self._slot_of[key] = slot
        recency.append(key)
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
        s = slot // self.ways
        self._recency[s].remove(key)
        self._free[s].append(slot % self.ways)
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
    def _probe(self, keys: np.ndarray) -> tuple[list, list, set]:
        """``lookup``'s recency update for every resident key of
        ``keys``, in order; returns the hit positions, their slots and
        the set of keys that missed."""
        slot_of, recency_of, sets = self._slot_of, self._recency, self.sets
        hit_at: List[int] = []
        slots: List[int] = []
        missed = set()
        for i, key in enumerate(keys.tolist()):
            slot = slot_of.get(key)
            if slot is None:
                missed.add(key)
            else:
                recency = recency_of[key % sets]
                recency.remove(key)
                recency.append(key)
                hit_at.append(i)
                slots.append(slot)
        return hit_at, slots, missed

    def _hits(self, n: int, hit_at: list, slots: list) -> tuple[np.ndarray, Optional[np.ndarray]]:
        hit_mask = np.zeros(n, dtype=bool)
        if not slots:
            return hit_mask, None
        hit_mask[hit_at] = True
        return hit_mask, self._values[slots]

    def lookup_many(self, keys: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Probe a batch; equivalent to ``lookup`` per key, in order.

        Returns ``(hit_mask, vectors)`` with ``vectors`` holding the
        cached values of the hit positions (``None`` when nothing hit).
        """
        if self._owed_keys:
            self._settle()
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        hit_at, slots, _missed = self._probe(keys)
        self.hits += len(slots)
        self.misses += keys.size - len(slots)
        return self._hits(keys.size, hit_at, slots)

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
        hit_at, slots, missed = self._probe(keys)
        self.hits += keys.size - len(missed)
        self.misses += len(missed)
        return self._hits(keys.size, hit_at, slots)

    def insert_many(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert a batch; equivalent to ``insert`` per row, in order.

        Recency and slots are claimed key by key (an eviction reads its
        set's order, which the keys before it moved); the vectors land in
        one scatter at the end.
        """
        if self.capacity == 0 or keys.size == 0:
            return
        if self._owed_keys:
            self._settle()
        values = np.asarray(values)
        self._ensure_storage(values[0])
        claim = self._claim
        # Duplicate keys resolve to the same slot; element-order assignment
        # keeps the last value, matching the sequential overwrite.
        self._values[[claim(key) for key in keys.tolist()]] = values

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
        return [list(recency) for recency in self._recency]


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
