"""Fixed-seed hot-path scenarios with fully recorded simulated outcomes.

The vectorized hot path (array caches, batched cache probes) must leave
every *simulated* number unchanged: op latencies, component breakdowns,
cache hit/miss/eviction counts, device counters.  These scenarios were
recorded on the scalar implementation and replayed against the
vectorized one; the replay holds them to `hotpath_golden.json` exactly
(times, counters) or to float tolerance (``values_sum``: float32
accumulation order may legitimately differ).  ``ssd_coalesce_packed``
and ``read_pages_direct`` issue multi-page FTL reads, which are one
flash read per page, in page order, as they were when recorded.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.core.engine import NdpEngineConfig
from repro.embedding.backends.dram import DramSlsBackend
from repro.embedding.backends.ndp import NdpSlsBackend
from repro.embedding.backends.ssd import SsdSlsBackend
from repro.embedding.caches import SetAssociativeLru, StaticPartitionCache
from repro.embedding.spec import Layout, TableSpec
from repro.embedding.table import EmbeddingTable
from repro.host.system import build_system

from ..ftl.host_read import read_pages

__all__ = ["SCENARIOS"]


def _zipf_bags(rng: np.random.Generator, n_bags: int, bag_size: int, rows: int, a: float):
    return [rng.zipf(a, bag_size).astype(np.int64) % rows for _ in range(n_bags)]


def _clustered_bags(rng: np.random.Generator, n_bags: int, bag_size: int, rows: int):
    """Bags mixing short sequential runs with random ids (coalescing food)."""
    bags = []
    for _ in range(n_bags):
        starts = rng.integers(0, rows - 8, size=bag_size // 4)
        runs = (starts[:, None] + np.arange(4)[None, :]).reshape(-1)
        bags.append(runs.astype(np.int64) % rows)
    return bags


def _cache_stats(cache) -> Dict[str, float]:
    out = {"hits": float(cache.hits), "misses": float(cache.misses)}
    for name in ("evictions", "insert_failures", "conflict_evictions", "inserts"):
        if hasattr(cache, name):
            out[name] = float(getattr(cache, name))
    return out


def _device_counters(system) -> Dict[str, float]:
    ftl = system.device.ftl
    return {
        "host_page_reads": float(ftl.host_page_reads),
        "flash_page_reads": float(ftl.flash_page_reads),
        "flash_total_reads": float(ftl.flash.total_reads()),
        "page_cache": _cache_stats(ftl.page_cache),
        "driver_commands": float(system.driver.commands_issued),
    }


def _record(system, backend, all_bags, device: bool = True, **caches) -> Dict[str, Any]:
    """Run the ops one by one; then the caches' counters, the device's
    and the clock."""
    ops: List[Dict[str, Any]] = []
    for bags in all_bags:
        result = backend.run_sync(bags)
        ops.append(
            {
                "latency": result.latency,
                "end_time": result.end_time,
                "stats": {k: float(v) for k, v in sorted(result.stats.items())},
                "breakdown": {
                    k: float(v) for k, v in sorted(result.breakdown.components.items())
                },
                "values_sum": float(result.values.sum(dtype=np.float64)),
                "values_shape": list(result.values.shape),
            }
        )
    out: Dict[str, Any] = {"ops": ops}
    out.update((name, _cache_stats(cache)) for name, cache in caches.items())
    if device:
        out["device"] = _device_counters(system)
    out["final_time"] = system.sim.now
    return out


def _attached(system, spec: TableSpec) -> EmbeddingTable:
    table = EmbeddingTable(spec)
    table.attach(system.device)
    return table


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def scenario_ssd_cache() -> Dict[str, Any]:
    system = build_system(min_capacity_pages=1 << 17)
    table = _attached(system, TableSpec(name="t", rows=50_000, dim=32))
    cache = SetAssociativeLru(2048, ways=16)
    backend = SsdSlsBackend(system, table, host_cache=cache)
    rng = np.random.default_rng(7)
    all_bags = [_zipf_bags(rng, 48, 32, 50_000, 1.3) for _ in range(4)]
    return _record(system, backend, all_bags, host_cache=cache)


def scenario_ssd_coalesce_packed() -> Dict[str, Any]:
    system = build_system(min_capacity_pages=1 << 16)
    table = _attached(system, TableSpec(name="p", rows=8192, dim=16, layout=Layout.PACKED))
    backend = SsdSlsBackend(system, table, coalesce=True, max_coalesce_lbas=32)
    rng = np.random.default_rng(11)
    all_bags = [_clustered_bags(rng, 24, 32, 8192) for _ in range(3)]
    return _record(system, backend, all_bags)


def scenario_ssd_nocache() -> Dict[str, Any]:
    system = build_system(min_capacity_pages=1 << 16)
    table = _attached(system, TableSpec(name="n", rows=4096, dim=8))
    backend = SsdSlsBackend(system, table)
    rng = np.random.default_rng(3)
    all_bags = [_zipf_bags(rng, 16, 24, 4096, 1.2) for _ in range(2)]
    return _record(system, backend, all_bags)


def scenario_ndp_partition() -> Dict[str, Any]:
    system = build_system(min_capacity_pages=1 << 17)
    table = _attached(system, TableSpec(name="t", rows=30_000, dim=32))
    rng = np.random.default_rng(13)
    profile = _zipf_bags(rng, 32, 32, 30_000, 1.3)
    partition = StaticPartitionCache.from_profile(table, profile, capacity=512)
    backend = NdpSlsBackend(system, table, partition=partition)
    all_bags = [_zipf_bags(rng, 24, 32, 30_000, 1.3) for _ in range(3)]
    return _record(system, backend, all_bags, partition=partition)


def scenario_ndp_embcache() -> Dict[str, Any]:
    system = build_system(
        min_capacity_pages=1 << 16, ndp=NdpEngineConfig(embcache_slots=4096)
    )
    table = _attached(system, TableSpec(name="e", rows=16_384, dim=16, layout=Layout.PACKED))
    backend = NdpSlsBackend(system, table)
    rng = np.random.default_rng(17)
    all_bags = [_zipf_bags(rng, 24, 32, 16_384, 1.4) for _ in range(3)]
    return _record(system, backend, all_bags, emb_cache=system.device.ndp.emb_cache)


def scenario_dram() -> Dict[str, Any]:
    system = build_system(min_capacity_pages=1 << 16)
    table = EmbeddingTable(TableSpec(name="d", rows=10_000, dim=64))
    backend = DramSlsBackend(system, table)
    rng = np.random.default_rng(5)
    all_bags = [_zipf_bags(rng, 32, 40, 10_000, 1.2) for _ in range(2)]
    return _record(system, backend, all_bags, device=False)


def scenario_ssd_raw_io() -> Dict[str, Any]:
    """SSD backend over a table loaded through the real write path.

    Pages hold raw encoded bytes (not virtual table content), exercising
    the buffer branch of vector extraction.
    """
    system = build_system(min_capacity_pages=1 << 16)
    table = EmbeddingTable(
        TableSpec(name="r", rows=2000, dim=64, layout=Layout.PACKED)
    )
    table.attach_via_io(system)
    backend = SsdSlsBackend(system, table, host_cache=SetAssociativeLru(256, ways=16))
    rng = np.random.default_rng(23)
    all_bags = [_zipf_bags(rng, 16, 16, 2000, 1.3) for _ in range(2)]
    return _record(system, backend, all_bags)


def scenario_read_pages_direct() -> Dict[str, Any]:
    """Drive Ftl.read directly (``tests/ftl/host_read.py``): mapped,
    unmapped and cached pages."""
    system = build_system(min_capacity_pages=1 << 16)
    table = _attached(system, TableSpec(name="rp", rows=4096, dim=16, layout=Layout.PACKED))
    ftl = system.device.ftl
    base_lpn = table.base_lba // ftl.lbas_per_page
    n_pages = table.spec.table_pages(table.page_bytes)
    rng = np.random.default_rng(29)
    calls: List[Dict[str, Any]] = []
    for k in range(6):
        size = int(rng.integers(1, 12))
        lpns = [int(base_lpn + rng.integers(0, n_pages + 2)) for _ in range(size)]
        done: List[Any] = []
        read_pages(ftl, lpns, done.append)
        system.sim.run_until(lambda: bool(done))
        contents = done[0]
        calls.append(
            {
                "lpns": lpns,
                "time": system.sim.now,
                "none_mask": [c is None for c in contents],
            }
        )
    return {
        "calls": calls,
        "device": _device_counters(system),
        "final_time": system.sim.now,
    }


SCENARIOS = {
    "ssd_cache": scenario_ssd_cache,
    "ssd_coalesce_packed": scenario_ssd_coalesce_packed,
    "ssd_nocache": scenario_ssd_nocache,
    "ndp_partition": scenario_ndp_partition,
    "ndp_embcache": scenario_ndp_embcache,
    "dram": scenario_dram,
    "ssd_raw_io": scenario_ssd_raw_io,
    "read_pages_direct": scenario_read_pages_direct,
}
