"""Stats-reset consistency: every counter a benchmark reads must clear.

Benchmarks discard warm-up iterations by calling ``reset_stats()`` /
``reset()``; a counter that survives the reset silently inflates the
measured window.  These tests pin the full reset surface across the
caches, Breakdown, ServingStats, the backends and the FTL — and, since
the ``repro.obs`` resettable registry, audit all of them through the
one ``reset_all()`` surface their constructors register into.
"""

import numpy as np
import pytest

from repro.core.embcache import DirectMappedEmbeddingCache
from repro.embedding.backends.ssd import SsdSlsBackend
from repro.embedding.caches import SetAssociativeLru, StaticPartitionCache
from repro.embedding.spec import TableSpec
from repro.embedding.table import EmbeddingTable
from repro.ftl.pagecache import PageCache
from repro.host.system import build_system
from repro.obs import reset_all
from repro.sim.resettable import clear_registry, live_resettables
from repro.sim.kernel import Simulator
from repro.sim.stats import Breakdown
from repro.serving.stats import ServingStats
from repro.serving.request import InferenceRequest


def vec(x):
    return np.full(4, float(x), dtype=np.float32)


def test_lru_reset_clears_all_counters_keeps_contents():
    cache = SetAssociativeLru(4, ways=2)
    for k in range(8):
        cache.insert(k, vec(k))
    cache.lookup(7)
    cache.lookup(100)
    cache.invalidate(7)
    assert cache.hits and cache.misses and cache.evictions
    assert cache.invalidations == 1
    occupancy = cache.occupancy
    cache.reset_stats()
    assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
    assert cache.invalidations == 0
    assert cache.hit_rate == 0.0
    assert cache.occupancy == occupancy  # contents survive, stats don't


def test_partition_reset():
    part = StaticPartitionCache(np.array([1, 2]), np.zeros((2, 4), np.float32))
    part.partition_mask(np.array([1, 9]))
    part.update_rows(np.array([1]), np.ones((1, 4), np.float32))
    assert part.updates == 1
    part.reset_stats()
    assert (part.hits, part.misses, part.updates) == (0, 0, 0)
    # The written-through value itself survives the stats reset.
    assert np.array_equal(
        part.vectors_for(np.array([1])), np.ones((1, 4), np.float32)
    )


def test_page_cache_reset_clears_all_counters():
    cache = PageCache(2)
    cache.insert(1, "a")
    cache.insert(2, "b")
    cache.insert(3, "c")          # evicts
    cache.pin(2)
    cache.pin(3)
    cache.insert(4, "d")          # everything pinned -> insert failure
    cache.lookup(2)
    cache.lookup(99)
    assert cache.evictions and cache.insert_failures
    cache.reset_stats()
    assert (cache.hits, cache.misses, cache.evictions, cache.insert_failures) == (
        0, 0, 0, 0,
    )


def test_embcache_reset_clears_all_counters():
    cache = DirectMappedEmbeddingCache(1)
    cache.insert(0, 1, vec(1))
    cache.insert(0, 2, vec(2))    # conflict eviction
    cache.lookup(0, 2)
    cache.lookup(0, 1)
    cache.invalidate(0, 2)
    cache.insert(0, 2, vec(2))
    assert cache.invalidations == 1
    cache.reset_stats()
    assert (cache.hits, cache.misses, cache.conflict_evictions, cache.inserts) == (
        0, 0, 0, 0,
    )
    assert cache.invalidations == 0
    assert cache.occupancy == 1   # contents survive


def test_breakdown_reset():
    bd = Breakdown({"a": 1.0})
    bd.add("b", 2.0)
    bd.reset()
    assert bd.components == {}
    assert bd.total == 0.0


def test_serving_stats_reset():
    sim = Simulator()
    stats = ServingStats(sim)
    req = InferenceRequest(model="m", batch=None)
    req.t_arrival = 0.0
    stats.record_arrival(req)
    req.t_dispatch = 0.1
    req.t_done = 0.2
    stats.record_dispatch([req])
    stats.record_completion(req)
    assert stats.completed == 1 and stats.latencies
    # Live-update gauges are part of the same reset surface.
    stats.update_pages_written = 7
    stats.update_writes_completed = 7
    stats.reset()
    assert stats.submitted == 0
    assert stats.completed == 0
    assert stats.rejected == 0
    assert stats.batches_dispatched == 0
    assert stats.latencies == [] and stats.queue_delays == []
    assert stats.completed_by_model == {}
    assert stats.first_arrival is None and stats.last_completion is None
    assert stats.requests_per_batch.count == 0
    assert stats.throughput_rps() == 0.0
    assert stats.update_pages_written == 0
    assert stats.update_writes_completed == 0
    # In-flight tracking carries across the reset window.
    assert stats.inflight == 0
    assert stats.max_inflight == 0


def test_ftl_reset_covers_write_gc_and_wear_gauges():
    """``ftl.reset_stats()`` is the one call benchmarks make between the
    aging warm-up and the measured window: it must clear the write-path
    counters and the GC/wear gauges the update benchmarks read."""
    system = build_system(min_capacity_pages=1 << 16)
    ftl = system.device.ftl
    ftl.host_page_writes = 9
    ftl.write_stalls = 2
    ftl.gc.runs = 4
    ftl.gc.pages_moved = 100
    ftl.gc.stalls = 1
    ftl.wear.migrations = 3
    ftl.wear.checks = 11
    ftl.reset_stats()
    assert ftl.host_page_writes == 0
    assert ftl.write_stalls == 0
    assert (ftl.gc.runs, ftl.gc.pages_moved, ftl.gc.stalls) == (0, 0, 0)
    assert (ftl.wear.migrations, ftl.wear.checks) == (0, 0)


def test_benchmark_window_does_not_inherit_warmup():
    """The bench pattern: warm up, reset, measure — second window only."""
    system = build_system(min_capacity_pages=1 << 16)
    table = EmbeddingTable(TableSpec(name="t", rows=4096, dim=8))
    table.attach(system.device)
    cache = SetAssociativeLru(256, ways=16)
    backend = SsdSlsBackend(system, table, host_cache=cache)
    rng = np.random.default_rng(0)
    bags = [rng.integers(0, 4096, size=16) for _ in range(8)]
    backend.run_sync(bags)  # warm-up
    cache.reset_stats()
    backend.reset_stats()
    system.device.ftl.reset_stats()
    result = backend.run_sync(bags)
    assert backend.ops == 1
    assert cache.hits + cache.misses == int(result.stats["lookups"])
    assert system.device.ftl.host_page_reads <= int(result.stats["commands"]) * 2


def test_registry_audit_one_surface_resets_everything():
    """The ``repro.obs`` registry replaces per-class introspection: every
    stats-bearing constructor registers itself, so building a stack,
    dirtying it and calling ``reset_all()`` audits the whole reset
    surface at once — a new gauge in any registered class cannot escape
    the audit by being forgotten here."""
    clear_registry()
    try:
        system = build_system(min_capacity_pages=1 << 16)
        stats = ServingStats(Simulator())
        lru = SetAssociativeLru(4, ways=2)
        part = StaticPartitionCache(
            np.array([1, 2]), np.zeros((2, 4), np.float32)
        )
        emb = DirectMappedEmbeddingCache(1)
        page = PageCache(2)
        registered = {type(o).__name__ for o in live_resettables()}
        # The constructor-registration contract: each of these surfaces
        # must be in the registry the moment it exists.
        assert {
            "GreedyFtl",
            "PageCache",
            "ServingStats",
            "SetAssociativeLru",
            "StaticPartitionCache",
            "DirectMappedEmbeddingCache",
        } <= registered

        # Dirty every surface...
        ftl = system.device.ftl
        ftl.host_page_writes = 9
        ftl.gc.runs = 4
        ftl.wear.migrations = 3
        req = InferenceRequest(model="m", batch=None)
        stats.record_arrival(req)
        req.t_dispatch, req.t_done = 0.1, 0.2
        stats.record_completion(req)
        for k in range(8):
            lru.insert(k, vec(k))
        lru.lookup(100)
        part.partition_mask(np.array([1, 9]))
        emb.insert(0, 1, vec(1))
        emb.lookup(0, 1)
        page.insert(1, "a")
        page.lookup(1)
        page.lookup(99)

        # ...and clear them all through the one registry surface.
        assert reset_all() >= 6
        assert ftl.host_page_writes == 0
        assert (ftl.gc.runs, ftl.wear.migrations) == (0, 0)
        assert stats.completed == 0 and stats.latencies == []
        assert (lru.hits, lru.misses, lru.evictions) == (0, 0, 0)
        assert (part.hits, part.misses) == (0, 0)
        assert (emb.hits, emb.misses, emb.inserts) == (0, 0, 0)
        assert (page.hits, page.misses) == (0, 0)
    finally:
        # Registrations are weak; drop ours so later tests see a clean
        # global registry.
        clear_registry()
