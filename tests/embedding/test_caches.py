"""Host-side caches: set-associative LRU and static partition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embedding.caches import (
    SetAssociativeLru,
    StaticPartitionCache,
    profile_hot_rows,
)

from ..conftest import make_table


def vec(x):
    return np.full(4, float(x), dtype=np.float32)


class TestSetAssociativeLru:
    def test_hit_miss(self):
        cache = SetAssociativeLru(64, ways=16)
        cache.insert(5, vec(5))
        assert cache.lookup(5)[0] == 5.0
        assert cache.lookup(6) is None
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_within_set(self):
        cache = SetAssociativeLru(2, ways=2)  # one set, 2 ways
        cache.insert(0, vec(0))
        cache.insert(1, vec(1))
        cache.lookup(0)          # refresh 0
        cache.insert(2, vec(2))  # evicts 1
        assert cache.lookup(1) is None
        assert cache.lookup(0) is not None
        assert cache.evictions == 1

    def test_sets_isolate_keys(self):
        cache = SetAssociativeLru(4, ways=2)  # 2 sets
        cache.insert(0, vec(0))  # set 0
        cache.insert(2, vec(2))  # set 0
        cache.insert(4, vec(4))  # set 0 -> evicts key 0
        assert cache.lookup(1) is None  # set 1 untouched
        assert cache.occupancy == 2

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf"), -1])
    def test_capacity_must_be_finite_and_non_negative(self, capacity):
        # Regression: max(1, nan) is 1, so a NaN capacity built 16 slots.
        with pytest.raises(ValueError, match=r"SetAssociativeLru\.capacity must be"):
            SetAssociativeLru(capacity)

    @pytest.mark.parametrize("capacity", [2.5, 16.0, "8", None])
    def test_capacity_must_be_an_integer(self, capacity):
        # 2.5 used to die in numpy ("cannot be interpreted as an integer").
        with pytest.raises(ValueError, match="SetAssociativeLru.capacity must be an integer"):
            SetAssociativeLru(capacity)

    @pytest.mark.parametrize("ways", [0, -1, 1.5, float("nan")])
    def test_ways_must_be_a_positive_integer(self, ways):
        with pytest.raises(ValueError, match="SetAssociativeLru.ways must be an integer"):
            SetAssociativeLru(32, ways=ways)

    def test_zero_capacity(self):
        cache = SetAssociativeLru(0)
        cache.insert(1, vec(1))
        assert cache.lookup(1) is None
        assert 1 not in cache

    @given(
        keys=st.lists(st.integers(0, 40), min_size=1, max_size=300),
    )
    @settings(max_examples=40, deadline=None)
    def test_occupancy_bounded(self, keys):
        cache = SetAssociativeLru(16, ways=4)
        for key in keys:
            if cache.lookup(key) is None:
                cache.insert(key, vec(key))
        assert cache.occupancy <= 16
        # A key just inserted (and not displaced) must be findable.
        assert cache.hits + cache.misses == len(keys)


class TestProfile:
    def test_profile_hot_rows_orders_by_frequency(self):
        trace = [np.array([1, 1, 1, 2, 2, 3])]
        hot = profile_hot_rows(trace, capacity=2)
        assert list(hot) == [1, 2]

    def test_profile_tie_break_deterministic(self):
        trace = [np.array([5, 4])]
        assert list(profile_hot_rows(trace, 2)) == [4, 5]

    def test_empty_profile(self):
        assert profile_hot_rows([], 4).size == 0


class TestStaticPartition:
    def test_from_profile_and_lookup(self, system):
        table = make_table(system, rows=64, dim=4)
        partition = StaticPartitionCache.from_profile(
            table, [np.array([7, 7, 9])], capacity=1
        )
        assert partition.size == 1
        assert list(partition.partition_mask(np.array([7]))) == [True]
        got = partition.vectors_for(np.array([7]))[0]
        assert np.allclose(got, table.get_rows(np.array([7]))[0], rtol=1e-6)
        assert list(partition.partition_mask(np.array([9]))) == [False]
        assert partition.hits == 1 and partition.misses == 1

    def test_partition_mask(self, system):
        table = make_table(system, rows=64, dim=4)
        partition = StaticPartitionCache.from_profile(
            table, [np.array([1, 1, 2])], capacity=2
        )
        mask = partition.partition_mask(np.array([1, 3, 2]))
        assert list(mask) == [True, False, True]
        vectors = partition.vectors_for(np.array([1, 2]))
        assert np.allclose(
            vectors, table.get_rows(np.array([1, 2])), rtol=1e-6
        )

    def test_hit_rate_and_reset(self, system):
        table = make_table(system, rows=64, dim=4)
        partition = StaticPartitionCache.from_profile(
            table, [np.array([0])], capacity=1
        )
        partition.partition_mask(np.array([0, 1]))
        assert partition.hit_rate == pytest.approx(0.5)
        partition.reset_stats()
        assert partition.hit_rate == 0.0
