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


def test_slots_equal_the_int64_hash_up_to_its_wrap():
    """The slot hash runs on Python ints, which never wrap, so it equals
    the int64 form only while ``row * 2654435761 + table * 97 < 2**63``
    (the bound the module documents)."""
    cache = DirectMappedEmbeddingCache(8191)
    table = 5
    top = (2**63 - 1 - table * 97) // 2654435761     # the last row under the bound
    rows = np.array([0, 1, 40_000_000, top, top + 1], dtype=np.int64)
    int64_slots = ((rows * 2654435761 + table * 97) % cache.slots).tolist()
    slots = [cache._slot(table, row) for row in rows.tolist()]
    assert slots[:4] == int64_slots[:4]
    assert slots[4] != int64_slots[4]


class InsertAtOnceModel:
    """The cache as plain Python: a dict ``slot -> (table, row, vector)``
    where a page's vectors are stored with its tags, one ``insert`` per
    first occurrence of a row.  Shares nothing with ``embcache`` but the
    slot hash."""

    def __init__(self, slots):
        self.slots = slots
        self.resident = {}
        self.hits = self.misses = self.inserts = 0
        self.conflict_evictions = self.invalidations = 0

    def _slot(self, table, row):
        return (row * 2654435761 + table * 97) % self.slots

    def insert_many(self, table, rows, vectors):
        seen = set()
        for row, vector in zip(rows, vectors):
            if row in seen:
                continue
            seen.add(row)
            slot = self._slot(table, row)
            if slot in self.resident and self.resident[slot][:2] != (table, row):
                self.conflict_evictions += 1
            self.resident[slot] = (table, row, np.asarray(vector).tolist())
            self.inserts += 1

    def probe_many(self, table, rows):
        """``(hit mask, hit vectors)`` as lists."""
        mask, vectors = [], []
        for row in rows:
            held = self.resident.get(self._slot(table, row), (None, None))
            mask.append(held[:2] == (table, row))
            if mask[-1]:
                vectors.append(held[2])
        self.hits += len(vectors)
        self.misses += len(rows) - len(vectors)
        return mask, vectors

    def invalidate_many(self, table, rows):
        for row in set(rows):
            slot = self._slot(table, row)
            if slot in self.resident and self.resident[slot][:2] == (table, row):
                del self.resident[slot]
                self.invalidations += 1

    @property
    def occupancy(self):
        return len(self.resident)


COUNTERS = ("hits", "misses", "inserts", "conflict_evictions", "invalidations", "occupancy")


def _tags(cache):
    """Slot -> (table, row) for every occupied slot."""
    return cache.tags


def _resident(cache):
    """Slot -> (table, row, vector) for every occupied slot."""
    return {
        slot: (table, row, np.asarray(cache._get_value(slot)).tolist())
        for slot, (table, row) in cache.tags.items()
    }


class TestInsertManyMatchesInsertLoop:
    """``insert_many`` of a batch must leave the cache exactly as a
    sequential ``insert`` of each row's first occurrence would, whatever
    the batch's length."""

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
        model = InsertAtOnceModel(slots)
        if mixed_width:
            # A resident vector of another width forces per-slot storage.
            for cache in (batched, looped):
                cache.insert(9, 1, np.ones(2, dtype=np.float32))
            model.insert_many(9, [1], [np.ones(2)])
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
            model.insert_many(table, rows.tolist(), vectors)
            for cache in (batched, looped):
                cache.probe_many(table, rows)
            model.probe_many(table, rows.tolist())
            assert _resident(batched) == _resident(looped) == model.resident
            for counter in COUNTERS:
                assert (
                    getattr(batched, counter) == getattr(looped, counter) == getattr(model, counter)
                ), counter
        assert (batched._values_obj is not None) == (looped._values_obj is not None)


# ----------------------------------------------------------------------
# Tags at the page, vectors at the gather
# ----------------------------------------------------------------------
def _vector(table, row, version, dim):
    return np.full(dim, table * 4096 + row + version / 4, dtype=np.float32)


ROW = st.integers(0, 40)
# Short pages (up to 8 rows) and long ones (17-24 rows).
ROWS = st.one_of(st.lists(ROW, min_size=1, max_size=8), st.lists(ROW, min_size=17, max_size=24))
STEP = st.one_of(
    st.tuples(st.just("page"), st.integers(0, 3), ROWS),            # entry, its page's rows
    st.tuples(st.just("gather"), st.integers(0, 3), st.none()),     # entry
    st.tuples(st.just("rewrite"), st.integers(0, 2), ROWS),         # table, rows committed
    st.tuples(st.just("probe"), st.integers(0, 2), ROWS),           # table, rows probed
)


class TestTagsNowVectorsAtTheGather:
    """Four interleaved "entries" (entry ``e`` reads table ``e % 3``) tag
    the cache page by page with ``insert_tags`` and fill what they owe
    with one ``fill_many`` per gather; everything owed is filled, entry
    by entry in a drawn order, before a probe (the cache's ``settle``)
    and before rows are rewritten and invalidated.  Against
    :class:`InsertAtOnceModel`, which stores each page's vectors with
    its tags: tags and counters equal after every step, hit masks, hit
    vectors and resident vectors at every probe."""

    @settings(max_examples=200, deadline=None)
    @given(
        slots=st.integers(1, 40),
        narrow_table=st.booleans(),
        steps=st.lists(st.tuples(STEP, st.permutations(range(4))), min_size=1, max_size=30),
    )
    def test_same_tags_counters_and_hit_vectors(self, slots, narrow_table, steps):
        cache = DirectMappedEmbeddingCache(slots)
        model = InsertAtOnceModel(slots)
        # Table 2 may hold narrower vectors: the per-slot storage fallback.
        dims = {0: 4, 1: 4, 2: 2 if narrow_table else 4}
        versions = {}
        owed = {entry: [] for entry in range(4)}
        fills = []

        def gather(entry):
            pages, owed[entry] = owed[entry], []
            if pages:
                rows, vectors = zip(*pages)
                cache.fill_many(entry % 3, sum(rows, []), np.concatenate(vectors))
                fills.append(entry)

        settle_order = []
        cache.settle = lambda: [gather(entry) for entry in settle_order]
        for (kind, who, rows), order in steps:
            settle_order[:] = order
            if kind == "page":
                table = who % 3
                vectors = np.stack(
                    [_vector(table, row, versions.get((table, row), 0), dims[table]) for row in rows]
                )
                cache.insert_tags(table, rows)
                owed[who].append((rows, vectors))
                model.insert_many(table, rows, vectors)
            elif kind == "gather":
                gather(who)
            elif kind == "rewrite":
                cache.settle()
                for row in rows:
                    versions[(who, row)] = versions.get((who, row), 0) + 1
                cache.invalidate_many(who, np.asarray(rows))
                model.invalidate_many(who, rows)
            else:
                mask, vectors = cache.probe_many(who, np.asarray(rows))
                want_mask, want_vectors = model.probe_many(who, rows)
                assert mask.tolist() == want_mask
                assert ([] if vectors is None else vectors.tolist()) == want_vectors
                assert not any(owed.values())
                assert _resident(cache) == model.resident
            assert _tags(cache) == {slot: held[:2] for slot, held in model.resident.items()}
            for counter in COUNTERS:
                assert getattr(cache, counter) == getattr(model, counter), counter
        cache.settle()
        assert _resident(cache) == model.resident

    def test_an_owed_vector_is_dropped_once_another_row_holds_the_slot(self):
        cache = DirectMappedEmbeddingCache(8)       # rows 8 apart share a slot
        cache.insert_tags(0, [3])
        cache.insert_many(0, np.array([11]), np.stack([vec(11)]))
        cache.fill_many(0, [3], np.stack([vec(3)]))
        assert cache.lookup(0, 3) is None
        assert cache.lookup(0, 11)[0] == 11.0
        assert cache.conflict_evictions == 1 and cache.inserts == 2

    @pytest.mark.parametrize("reader", ["lookup", "lookup_many", "probe_many"])
    def test_every_reader_settles_first(self, reader):
        cache = DirectMappedEmbeddingCache(8)
        cache.insert(0, 1, vec(1))                   # storage exists: unfilled reads as zeros
        cache.insert_tags(0, [2])
        cache.settle = lambda: cache.fill_many(0, [2], np.stack([vec(2)]))
        got = {
            "lookup": lambda: cache.lookup(0, 2),
            "lookup_many": lambda: cache.lookup_many(0, np.array([2]))[1][0],
            "probe_many": lambda: cache.probe_many(0, np.array([2]))[1][0],
        }[reader]()
        assert got[0] == 2.0
