"""SSD-side direct-mapped embedding cache."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.embcache import DirectMappedEmbeddingCache


def vec(x):
    return np.full(4, float(x), dtype=np.float32)


class TestDirectMapped:
    def test_insert_lookup(self):
        cache = DirectMappedEmbeddingCache(64)
        cache.insert(1, 10, vec(1))
        got = cache.lookup(1, 10)
        assert got is not None and got[0] == 1.0
        assert cache.hits == 1

    def test_miss(self):
        cache = DirectMappedEmbeddingCache(64)
        assert cache.lookup(1, 10) is None
        assert cache.misses == 1

    def test_conflict_eviction(self):
        cache = DirectMappedEmbeddingCache(1)  # every key maps to slot 0
        cache.insert(0, 1, vec(1))
        cache.insert(0, 2, vec(2))
        assert cache.conflict_evictions == 1
        assert cache.lookup(0, 1) is None
        got = cache.lookup(0, 2)
        assert got is not None and got[0] == 2.0

    def test_same_key_overwrite_not_conflict(self):
        cache = DirectMappedEmbeddingCache(16)
        cache.insert(0, 1, vec(1))
        cache.insert(0, 1, vec(9))
        assert cache.conflict_evictions == 0
        assert cache.lookup(0, 1)[0] == 9.0

    def test_tables_are_distinct(self):
        cache = DirectMappedEmbeddingCache(1 << 12)
        cache.insert(1, 5, vec(1))
        assert cache.lookup(2, 5) is None

    def test_disabled_cache(self):
        cache = DirectMappedEmbeddingCache(0)
        cache.insert(0, 1, vec(1))
        assert cache.lookup(0, 1) is None
        assert cache.occupancy == 0

    def test_lookup_many(self):
        cache = DirectMappedEmbeddingCache(256)
        cache.insert(0, 3, vec(3))
        mask, vectors = cache.lookup_many(0, np.array([1, 3, 5]))
        assert list(mask) == [False, True, False]
        assert vectors[1][0] == 3.0

    def test_stats_reset_and_clear(self):
        cache = DirectMappedEmbeddingCache(8)
        cache.insert(0, 1, vec(1))
        cache.lookup(0, 1)
        cache.reset_stats()
        assert cache.hits == 0 and cache.hit_rate == 0.0
        cache.clear()
        assert cache.occupancy == 0

    def test_conflicting_keys_thrash(self):
        """Two rows mapping to the same slot evict each other forever.

        The slot hash is (row * 2654435761 + table * 97) % slots and the
        multiplier is odd, so with 8 slots rows differing by 8 collide.
        An 8-entry LRU would serve this alternation at 100% after warmup;
        the direct-mapped cache gets 0%.
        """
        cache = DirectMappedEmbeddingCache(8)
        hits = 0
        for i in range(50):
            row = 0 if i % 2 == 0 else 8
            if cache.lookup(0, row) is not None:
                hits += 1
            else:
                cache.insert(0, row, vec(row))
        assert hits == 0
        assert cache.conflict_evictions >= 48


def _resident(cache):
    """Slot -> (table, row, vector) for every occupied slot."""
    out = {}
    for slot in np.flatnonzero(cache._tag_row != -1).tolist():
        out[slot] = (
            int(cache._tag_table[slot]),
            int(cache._tag_row[slot]),
            np.asarray(cache._get_value(slot)).tolist(),
        )
    return out


class TestInsertManyMatchesInsertLoop:
    """``insert_many`` picks its route (per-row loop or vector ops) on the
    batch length alone; either way it must leave the cache exactly as a
    sequential ``insert`` of each row's first occurrence would."""

    @settings(max_examples=200, deadline=None)
    @given(
        slots=st.sampled_from([1, 3, 8, 64]),
        mixed_width=st.booleans(),
        batches=st.lists(
            st.tuples(
                st.integers(0, 2),                              # table key
                st.lists(st.integers(0, 40), max_size=64),      # rows, repeats likely
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_state_and_counters_equal(self, slots, mixed_width, batches):
        batched = DirectMappedEmbeddingCache(slots)
        looped = DirectMappedEmbeddingCache(slots)
        if mixed_width:
            # A resident vector of another width forces per-slot storage.
            for cache in (batched, looped):
                cache.insert(9, 1, np.ones(2, dtype=np.float32))
        stamp = 0.0
        for table, rows in batches:
            rows = np.asarray(rows, dtype=np.int64)
            vectors = (
                stamp + np.arange(rows.size * 4, dtype=np.float32)
            ).reshape(rows.size, 4)
            stamp += 1000.0
            batched.insert_many(table, rows, vectors)
            seen = set()
            for i, row in enumerate(rows.tolist()):
                if row not in seen:
                    seen.add(row)
                    looped.insert(table, row, vectors[i])
            for cache in (batched, looped):
                cache.probe_many(table, rows)
            assert _resident(batched) == _resident(looped)
            for counter in ("hits", "misses", "inserts", "conflict_evictions", "_occupied"):
                assert getattr(batched, counter) == getattr(looped, counter), counter
        assert (batched._values_obj is not None) == (looped._values_obj is not None)

    def test_both_routes_are_exercised(self):
        from repro.core import embcache

        assert 0 < embcache._ELEMENTWISE_MAX < 64
