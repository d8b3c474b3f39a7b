"""Simulated work per layer, read from the stack's public counters.

Exact for a fixed seed.  :func:`snapshot` reads every additive counter;
:func:`layer_counts` turns the difference across the run phase into the
per-layer metrics, so preload and ``age_device`` traffic is left out.
Fleet workloads sum over hosts and devices.
"""

from __future__ import annotations

from typing import Dict

from .workloads import Built, Observation

__all__ = ["snapshot", "layer_counts"]


def snapshot(built: Built) -> Dict[str, float]:
    """Every additive counter, summed over the workload's devices."""
    devices = built.devices
    channels = [c for d in devices for c in d.flash.channels]
    drivers = [s.system.driver_for(d) for s in built.servers for d in s.system.devices]
    sim = built.sim
    return {
        "sim.events": sim.event_count,
        "sim.now_s": sim.now,
        "flash.page_reads": sum(d.flash.total_reads() for d in devices),
        "flash.page_programs": sum(d.flash.total_programs() for d in devices),
        "flash.block_erases": sum(d.flash.total_erases() for d in devices),
        "flash.die_busy_s": sum(die.busy_time for c in channels for die in c.dies),
        "flash.dies": sum(len(c.dies) for c in channels),
        "flash.bus_busy_s": sum(c.bus.busy_time for c in channels),
        "flash.buses": len(channels),
        "ftl.host_page_reads": sum(d.ftl.host_page_reads for d in devices),
        "ftl.host_page_writes": sum(d.ftl.host_page_writes for d in devices),
        "ftl.flash_page_reads": sum(d.ftl.flash_page_reads for d in devices),
        "ftl.pagecache_hits": sum(d.ftl.page_cache.hits for d in devices),
        "ftl.pagecache_misses": sum(d.ftl.page_cache.misses for d in devices),
        "ftl.gc_runs": sum(d.ftl.gc.runs for d in devices),
        "ftl.gc_pages_moved": sum(d.ftl.gc.pages_moved for d in devices),
        "ftl.cpu_host_core_busy_s": sum(d.cpu.host_core.busy_time for d in devices),
        "ftl.cpu_ftl_core_busy_s": sum(d.cpu.ftl_core.busy_time for d in devices),
        "ftl.devices": len(devices),
        "nvme.commands_fetched": sum(d.controller.commands_fetched for d in devices),
        "nvme.pcie_bytes_to_host": sum(d.pcie.bytes_to_host for d in devices),
        "nvme.pcie_bytes_to_device": sum(d.pcie.bytes_to_device for d in devices),
        "driver.commands_issued": sum(x.commands_issued for x in drivers),
        "core.sls_requests": sum(d.ndp.requests_started for d in devices),
        "core.requests_queued": sum(d.ndp.requests_queued for d in devices),
        "core.embcache_hits": sum(d.ndp.emb_cache.hits for d in devices),
        "core.embcache_misses": sum(d.ndp.emb_cache.misses for d in devices),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_counts(
    built: Built, before: Dict[str, float], after: Dict[str, float], seen: Observation
) -> Dict[str, float]:
    """The simulated-work metrics of one repetition's run phase."""
    d = {key: after[key] - before[key] for key in after}
    makespan = d["sim.now_s"]
    stats = [server.stats for server in built.servers]
    lookups = sum(s.total_lookups() for s in stats)
    cache_hits = sum(s.total_cache_hits() for s in stats)
    host_lru = built.workload.host_cache_entries > 0
    router = getattr(built.front, "router", None)  # a single host has none
    routes = router.routes_by_host if router is not None else {}
    out = {
        "sim.events": d["sim.events"],
        "sim.events_per_req": _ratio(d["sim.events"], seen.completed),
        "flash.page_reads": d["flash.page_reads"],
        "flash.page_programs": d["flash.page_programs"],
        "flash.block_erases": d["flash.block_erases"],
        "flash.die_util": _ratio(d["flash.die_busy_s"], after["flash.dies"] * makespan),
        "flash.bus_util": _ratio(d["flash.bus_busy_s"], after["flash.buses"] * makespan),
        "ftl.host_page_reads": d["ftl.host_page_reads"],
        "ftl.host_page_writes": d["ftl.host_page_writes"],
        "ftl.flash_page_reads": d["ftl.flash_page_reads"],
        "ftl.pagecache_hit_rate": _ratio(
            d["ftl.pagecache_hits"], d["ftl.pagecache_hits"] + d["ftl.pagecache_misses"]
        ),
        "ftl.gc_runs": d["ftl.gc_runs"],
        "ftl.gc_pages_moved": d["ftl.gc_pages_moved"],
        "ftl.cpu_host_core_util": _ratio(
            d["ftl.cpu_host_core_busy_s"], after["ftl.devices"] * makespan
        ),
        "ftl.cpu_ftl_core_util": _ratio(
            d["ftl.cpu_ftl_core_busy_s"], after["ftl.devices"] * makespan
        ),
        "nvme.commands_fetched": d["nvme.commands_fetched"],
        "nvme.pcie_bytes_to_host": d["nvme.pcie_bytes_to_host"],
        "nvme.pcie_bytes_to_device": d["nvme.pcie_bytes_to_device"],
        "driver.commands_issued": d["driver.commands_issued"],
        "core.sls_requests": d["core.sls_requests"],
        "core.requests_queued": d["core.requests_queued"],
        "core.max_concurrent": max(
            dev.ndp.max_concurrent_requests for dev in built.devices
        ),
        "core.embcache_hit_rate": _ratio(
            d["core.embcache_hits"], d["core.embcache_hits"] + d["core.embcache_misses"]
        ),
        "embedding.sls_ops": sum(
            ops for s in stats for shard in s.shard_sub_ops.values() for ops in shard.values()
        ),
        # ServingStats credits cache hits per backend kind; they are the
        # host LRU's exactly when the workload configured one.
        "embedding.host_cache_hit_rate": _ratio(cache_hits, lookups) if host_lru else 0.0,
        "embedding.flash_pages_per_lookup": _ratio(d["ftl.flash_page_reads"], lookups),
        "serving.mean_queue_delay_ms": seen.summary["mean_queue_delay_ms"],
        "serving.mean_batch_requests": _ratio(
            sum(s.requests_per_batch.total for s in stats),
            sum(s.requests_per_batch.count for s in stats),
        ),
        "serving.max_inflight": max(s.max_inflight for s in stats),
        "serving.mean_dense_wait_ms": _ratio(
            sum(sum(s.dense_wait_s) for s in stats), sum(len(s.dense_wait_s) for s in stats)
        ) * 1e3,
        "workload.requests_submitted": seen.submitted,
        "workload.update_pages_written": seen.update_pages_written,
        # max / mean of the per-host route counts; 1.0 is perfectly even.
        "cluster.route_imbalance": (
            max(routes.values()) * len(built.servers) / sum(routes.values()) if routes else 1.0
        ),
        "cluster.routes_spread": router.routes_spread if router is not None else 0,
        "cluster.fleet_cache_hit_rate": _ratio(cache_hits, lookups),
    }
    return {name: float(value) for name, value in out.items()}
