"""Array caches vs scalar reference implementations on randomized traces.

Every batch operation must be indistinguishable — in hit/miss sequence,
stats, final contents and LRU recency order — from the equivalent
sequence of scalar operations on the OrderedDict/dict reference
implementations they replaced.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.embcache import DirectMappedEmbeddingCache
from repro.embedding.caches import SetAssociativeLru, StaticPartitionCache

from ..embedding.reference_caches import (
    ScalarSetAssociativeLru,
    ScalarStaticPartitionCache,
)


def vec(x, dim=4):
    return np.full(dim, float(x), dtype=np.float32)


def assert_lru_state_equal(ref: ScalarSetAssociativeLru, arr: SetAssociativeLru):
    assert ref.hits == arr.hits
    assert ref.misses == arr.misses
    assert ref.evictions == arr.evictions
    assert ref.invalidations == arr.invalidations
    assert ref.occupancy == arr.occupancy
    ref_contents = ref.contents()
    arr_contents = arr.contents()
    assert sorted(ref_contents) == sorted(arr_contents)
    for key in ref_contents:
        assert np.array_equal(ref_contents[key], arr_contents[key]), key
    assert ref.recency_order() == arr.recency_order()


def scalar_filter(cache, keys):
    """The sequential cache-filter loop of the scalar SSD backend (in
    ``src/`` until commit ce681c2), which ``probe_filter`` batches."""
    hit_mask = np.zeros(keys.size, dtype=bool)
    hit_vecs = []
    missed = set()
    for i, key in enumerate(keys.tolist()):
        if key in missed:
            cache.record_sequential_hit()
            continue
        value = cache.lookup(key)
        if value is not None:
            hit_mask[i] = True
            hit_vecs.append(value)
        else:
            missed.add(key)
    return hit_mask, hit_vecs


class TestSetAssociativeLruEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("capacity,ways", [(64, 16), (32, 4), (8, 8), (16, 1)])
    def test_random_scalar_ops(self, seed, capacity, ways):
        rng = np.random.default_rng(seed)
        ref = ScalarSetAssociativeLru(capacity, ways=ways)
        arr = SetAssociativeLru(capacity, ways=ways)
        for _ in range(400):
            key = int(rng.integers(0, 96))
            if rng.random() < 0.5:
                got_ref = ref.lookup(key)
                got_arr = arr.lookup(key)
                assert (got_ref is None) == (got_arr is None)
                if got_ref is not None:
                    assert np.array_equal(got_ref, got_arr)
            else:
                value = vec(key)
                ref.insert(key, value)
                arr.insert(key, value)
        assert_lru_state_equal(ref, arr)

    @pytest.mark.parametrize("seed", range(6))
    def test_lookup_many_matches_scalar_sequence(self, seed):
        rng = np.random.default_rng(seed)
        ref = ScalarSetAssociativeLru(48, ways=8)
        arr = SetAssociativeLru(48, ways=8)
        for key in rng.integers(0, 80, size=60).tolist():
            ref.insert(key, vec(key))
            arr.insert(key, vec(key))
        for _ in range(20):
            keys = rng.integers(0, 80, size=int(rng.integers(0, 40)))
            ref_hits = [ref.lookup(int(k)) for k in keys]
            hit_mask, vectors = arr.lookup_many(keys)
            assert [h is not None for h in ref_hits] == hit_mask.tolist()
            got = [v for v in ref_hits if v is not None]
            if got:
                assert np.array_equal(np.stack(got), vectors)
            else:
                assert vectors is None
        assert_lru_state_equal(ref, arr)

    @pytest.mark.parametrize("seed", range(6))
    def test_probe_filter_matches_backend_loop(self, seed):
        rng = np.random.default_rng(seed)
        ref = ScalarSetAssociativeLru(64, ways=16)
        arr = SetAssociativeLru(64, ways=16)
        for key in rng.integers(0, 100, size=80).tolist():
            ref.insert(key, vec(key))
            arr.insert(key, vec(key))
        for _ in range(15):
            keys = rng.integers(0, 120, size=int(rng.integers(1, 64)))
            ref_mask, ref_vecs = scalar_filter(ref, keys)
            arr_mask, arr_vecs = arr.probe_filter(keys)
            assert ref_mask.tolist() == arr_mask.tolist()
            if ref_vecs:
                assert np.array_equal(np.stack(ref_vecs), arr_vecs)
            else:
                assert arr_vecs is None
            # Refill with the missed rows, as the backend handlers do.
            miss_keys = np.unique(keys[~ref_mask])
            refill = np.stack([vec(k) for k in miss_keys]) if miss_keys.size else None
            if refill is not None:
                for k in miss_keys.tolist():
                    ref.insert(k, vec(k))
                arr.insert_many(miss_keys, refill)
        assert_lru_state_equal(ref, arr)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("capacity,ways", [(16, 4), (4, 2), (8, 8), (2, 1)])
    def test_insert_many_matches_scalar_sequence(self, seed, capacity, ways):
        """Heavy-eviction insert batches, including duplicate keys."""
        rng = np.random.default_rng(100 + seed)
        ref = ScalarSetAssociativeLru(capacity, ways=ways)
        arr = SetAssociativeLru(capacity, ways=ways)
        for _ in range(12):
            keys = rng.integers(0, 30, size=int(rng.integers(1, 25)))
            values = np.stack([vec(int(k) * 1000 + i) for i, k in enumerate(keys)])
            for i, k in enumerate(keys.tolist()):
                ref.insert(k, values[i])
            arr.insert_many(keys, values)
            assert_lru_state_equal(ref, arr)

    def test_zero_capacity_batches(self):
        arr = SetAssociativeLru(0)
        mask, vectors = arr.lookup_many(np.array([1, 2, 2]))
        assert not mask.any() and vectors is None
        assert arr.misses == 3
        mask, vectors = arr.probe_filter(np.array([5, 5, 6]))
        assert not mask.any()
        arr.insert_many(np.array([1, 2]), np.stack([vec(1), vec(2)]))
        assert arr.occupancy == 0


class TestStaticPartitionEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_mask_and_vectors(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.choice(200, size=40, replace=False).astype(np.int64)
        vectors = rng.standard_normal((40, 8)).astype(np.float32)
        ref = ScalarStaticPartitionCache(rows, vectors)
        new = StaticPartitionCache(rows, vectors)
        for _ in range(10):
            probe = rng.integers(0, 220, size=int(rng.integers(0, 50)))
            ref_mask = ref.partition_mask(probe)
            new_mask = new.partition_mask(probe)
            assert ref_mask.tolist() == new_mask.tolist()
            members = probe[ref_mask]
            if members.size:
                assert np.array_equal(ref.vectors_for(members), new.vectors_for(members))
        assert (ref.hits, ref.misses) == (new.hits, new.misses)

    def test_vectors_for_missing_row_raises(self):
        new = StaticPartitionCache(np.array([3, 9]), np.zeros((2, 4), np.float32))
        with pytest.raises(KeyError):
            new.vectors_for(np.array([3, 4]))

    def test_empty_partition(self):
        new = StaticPartitionCache(np.zeros(0, np.int64), np.zeros((0, 4), np.float32))
        mask = new.partition_mask(np.array([1, 2]))
        assert not mask.any()
        assert new.misses == 2


class ReferenceDirectMapped:
    """Dict-based reference of the direct-mapped cache's scalar semantics."""

    def __init__(self, slots):
        self.slots = slots
        self.entries = {}
        self.hits = self.misses = self.conflicts = self.inserts = 0

    def _slot(self, table, row):
        return (row * 2654435761 + table * 97) % self.slots

    def lookup(self, table, row):
        if self.slots == 0:
            self.misses += 1
            return None
        entry = self.entries.get(self._slot(table, row))
        if entry is not None and entry[0] == (table, row):
            self.hits += 1
            return entry[1]
        self.misses += 1
        return None

    def insert(self, table, row, value):
        if self.slots == 0:
            return
        slot = self._slot(table, row)
        existing = self.entries.get(slot)
        if existing is not None and existing[0] != (table, row):
            self.conflicts += 1
        self.entries[slot] = ((table, row), value)
        self.inserts += 1


class TestDirectMappedEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("slots", [7, 64, 1])
    def test_probe_and_insert_many(self, seed, slots):
        rng = np.random.default_rng(seed)
        ref = ReferenceDirectMapped(slots)
        new = DirectMappedEmbeddingCache(slots)
        table = 3
        for _ in range(15):
            rows = rng.integers(0, 40, size=int(rng.integers(1, 20)))
            ref_hits = [ref.lookup(table, int(r)) is not None for r in rows]
            mask, _vecs = new.probe_many(table, rows)
            assert ref_hits == mask.tolist()
            values = np.stack([vec(int(r), 4) for r in rows])
            # Reference = engine translation loop: first occurrence only.
            seen = set()
            for i, r in enumerate(rows.tolist()):
                if r not in seen:
                    seen.add(r)
                    ref.insert(table, r, values[i])
            new.insert_many(table, rows, values)
            assert (ref.hits, ref.misses) == (new.hits, new.misses)
            assert ref.conflicts == new.conflict_evictions
            assert ref.inserts == new.inserts
        # Final contents identical.
        for slot, ((tk, row), value) in ref.entries.items():
            got = new.lookup(tk, row)
            assert got is not None and np.array_equal(got, value)
