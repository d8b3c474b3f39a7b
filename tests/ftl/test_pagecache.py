"""SSD page cache: LRU order, pinning, stats."""

import pytest

from repro.ftl.pagecache import PageCache


class TestLru:
    def test_hit_after_insert(self):
        cache = PageCache(4)
        cache.insert(1, "a")
        hit, content = cache.lookup(1)
        assert hit and content == "a"
        assert cache.hits == 1 and cache.misses == 0

    def test_miss(self):
        cache = PageCache(4)
        hit, content = cache.lookup(9)
        assert not hit and content is None
        assert cache.misses == 1

    def test_lru_eviction_order(self):
        cache = PageCache(2)
        cache.insert(1, "a")
        cache.insert(2, "b")
        cache.lookup(1)          # refresh 1; 2 becomes LRU
        cache.insert(3, "c")     # evicts 2
        assert cache.peek(2) == (False, None)
        assert cache.peek(1) == (True, "a")
        assert cache.evictions == 1

    def test_insert_refreshes_existing(self):
        cache = PageCache(2)
        cache.insert(1, "a")
        cache.insert(2, "b")
        cache.insert(1, "a2")    # refresh, not new entry
        cache.insert(3, "c")     # evicts 2 (LRU)
        assert cache.peek(1) == (True, "a2")
        assert cache.peek(2) == (False, None)

    def test_peek_does_not_touch_stats_or_order(self):
        cache = PageCache(2)
        cache.insert(1, "a")
        cache.insert(2, "b")
        cache.peek(1)
        cache.insert(3, "c")     # evicts 1 (peek did not refresh)
        assert cache.peek(1) == (False, None)
        assert cache.hits == 0 and cache.misses == 0

    def test_zero_capacity(self):
        cache = PageCache(0)
        cache.insert(1, "a")
        assert cache.lookup(1) == (False, None)

    def test_invalidate(self):
        cache = PageCache(2)
        cache.insert(1, "a")
        cache.invalidate(1)
        assert cache.peek(1) == (False, None)

    def test_hit_rate(self):
        cache = PageCache(4)
        cache.insert(1, "a")
        cache.lookup(1)
        cache.lookup(2)
        assert cache.hit_rate == pytest.approx(0.5)
        cache.reset_stats()
        assert cache.hit_rate == 0.0


class TestPinning:
    def test_pinned_entry_not_evicted(self):
        cache = PageCache(2)
        cache.insert(1, "a")
        cache.insert(2, "b")
        cache.pin(1)
        cache.insert(3, "c")     # must evict 2, not pinned 1
        assert cache.peek(1) == (True, "a")
        assert cache.peek(2) == (False, None)

    def test_unpin_allows_eviction(self):
        cache = PageCache(1)
        cache.insert(1, "a")
        cache.pin(1)
        cache.insert(2, "b")     # all pinned: insert dropped
        assert cache.insert_failures == 1
        cache.unpin(1)
        cache.insert(3, "c")
        assert cache.peek(1) == (False, None)
        assert cache.peek(3) == (True, "c")

    def test_nested_pins(self):
        cache = PageCache(1)
        cache.insert(1, "a")
        cache.pin(1)
        cache.pin(1)
        cache.unpin(1)
        cache.insert(2, "b")     # still pinned once
        assert cache.peek(1) == (True, "a")


@pytest.mark.parametrize("capacity", [float("nan"), float("inf"), -1, 2.5, 3.0, "4", None])
def test_an_out_of_domain_capacity_is_refused(capacity):
    # NaN never evicted, -1 failed every insert, 2.5 held 3 pages.
    with pytest.raises(ValueError, match="PageCache.capacity_pages must be an integer"):
        PageCache(capacity)


def test_eviction_with_nothing_pinned_takes_the_lru_page():
    cache = PageCache(3)
    for lpn in (1, 2, 3):
        cache.insert(lpn, lpn)
    cache.lookup(1)
    cache.insert(4, 4)          # evicts 2
    cache.insert(5, 5)          # evicts 3
    assert [lpn for lpn in (1, 2, 3, 4, 5) if cache.peek(lpn)[0]] == [1, 4, 5]
    assert cache.evictions == 2 and cache.insert_failures == 0
