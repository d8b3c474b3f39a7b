"""The parent commit's ``repro.embedding.caches_scalar``, kept verbatim: the
dict-model host caches (an ``OrderedDict`` per LRU set, a plain dict for
the static partition) that the array caches in
:mod:`repro.embedding.caches` must match in hit/miss sequence, eviction
and invalidation counts, final contents and LRU recency order on any
operation sequence (``tests/hotpath/``, ``test_cache_invalidate.py``).

Copied from commit ce681c24a305dd25b8c466047358b64ea22bfe43; do not edit
to follow ``src/``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

import numpy as np

__all__ = ["ScalarSetAssociativeLru", "ScalarStaticPartitionCache"]


class ScalarSetAssociativeLru:
    """Set-associative LRU cache of row -> vector (per-key OrderedDicts)."""

    def __init__(self, capacity: int, ways: int = 16):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if ways < 1:
            raise ValueError("ways must be >= 1")
        self.capacity = capacity
        self.ways = min(ways, capacity) if capacity else ways
        # Ceil, matching SetAssociativeLru: a non-multiple capacity must
        # not shrink the cache below its nominal size.
        self.sets = (
            max(1, -(-capacity // max(1, self.ways))) if capacity else 0
        )
        self._sets: List["OrderedDict[int, np.ndarray]"] = [
            OrderedDict() for _ in range(self.sets)
        ]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def _set_of(self, key: int) -> "OrderedDict[int, np.ndarray]":
        return self._sets[key % self.sets]

    def lookup(self, key: int) -> Optional[np.ndarray]:
        if self.capacity == 0:
            self.misses += 1
            return None
        bucket = self._set_of(key)
        value = bucket.get(key)
        if value is None:
            self.misses += 1
            return None
        bucket.move_to_end(key)
        self.hits += 1
        return value

    def insert(self, key: int, value: np.ndarray) -> None:
        if self.capacity == 0:
            return
        bucket = self._set_of(key)
        if key in bucket:
            bucket.move_to_end(key)
            bucket[key] = value
            return
        if len(bucket) >= self.ways:
            bucket.popitem(last=False)
            self.evictions += 1
        bucket[key] = value

    def invalidate(self, key: int) -> bool:
        """Drop ``key`` if cached; returns whether it was resident."""
        if self.capacity == 0:
            return False
        bucket = self._set_of(key)
        if key not in bucket:
            return False
        del bucket[key]
        self.invalidations += 1
        return True

    def invalidate_many(self, keys: np.ndarray) -> int:
        dropped = 0
        for key in np.asarray(keys, dtype=np.int64).tolist():
            if self.invalidate(key):
                dropped += 1
        return dropped

    def record_sequential_hit(self) -> None:
        self.hits += 1

    def __contains__(self, key: int) -> bool:
        if self.capacity == 0:
            return False
        return key in self._set_of(key)

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def contents(self) -> Dict[int, np.ndarray]:
        """Key -> value snapshot (equivalence-test hook)."""
        out: Dict[int, np.ndarray] = {}
        for bucket in self._sets:
            out.update(bucket)
        return out

    def recency_order(self) -> List[List[int]]:
        """Per-set keys from least- to most-recently used."""
        return [list(bucket.keys()) for bucket in self._sets]


class ScalarStaticPartitionCache:
    """Read-only host partition, dict-indexed (reference implementation)."""

    def __init__(self, rows: np.ndarray, vectors: np.ndarray):
        rows = np.asarray(rows, dtype=np.int64)
        if vectors.shape[0] != rows.size:
            raise ValueError("rows/vectors length mismatch")
        self._index: Dict[int, int] = {int(r): i for i, r in enumerate(rows)}
        self._vectors = np.asarray(vectors, dtype=np.float32)
        self.hits = 0
        self.misses = 0
        self.updates = 0

    def lookup(self, row: int) -> Optional[np.ndarray]:
        idx = self._index.get(row)
        if idx is None:
            self.misses += 1
            return None
        self.hits += 1
        return self._vectors[idx]

    def update_rows(self, rows: np.ndarray, vectors: np.ndarray) -> int:
        """Write-through for member rows, one at a time (last write wins)."""
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.shape[0] != len(rows):
            raise ValueError("rows/vectors length mismatch")
        written = 0
        for i, row in enumerate(rows):
            idx = self._index.get(int(row))
            if idx is not None:
                self._vectors[idx] = vectors[i]
                written += 1
        self.updates += written
        return written

    def partition_mask(self, rows: np.ndarray) -> np.ndarray:
        mask = np.fromiter(
            (int(r) in self._index for r in rows), count=len(rows), dtype=bool
        )
        n_hit = int(mask.sum())
        self.hits += n_hit
        self.misses += len(rows) - n_hit
        return mask

    def vectors_for(self, rows: np.ndarray) -> np.ndarray:
        idxs = np.asarray([self._index[int(r)] for r in rows], dtype=np.int64)
        return self._vectors[idxs]

    @property
    def size(self) -> int:
        return len(self._index)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.updates = 0
