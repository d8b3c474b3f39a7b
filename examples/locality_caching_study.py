#!/usr/bin/env python3
"""Caching-strategy study across input locality (mini Figure 10).

Generates locality-parameterized traces (K = 0 high locality, K = 2 low
locality) for an RM3 model and compares:

* conventional SSD + host LRU cache (the strongest non-NDP baseline),
* RecSSD + SSD-side direct-mapped embedding cache,
* RecSSD + profiled static host partition.

The crossover is the paper's point: host LRU wins when locality is high;
once most lookups must come off flash, RecSSD's internal bandwidth wins,
and static partitioning recovers the host-DRAM benefit on top.
"""

import numpy as np

from repro.core.engine import NdpEngineConfig
from repro.experiments.common import locality_samplers
from repro.models import BackendKind, RunnerConfig, build_model
from repro.serving.runner import ModelRunner


def study(k: int, batch_size: int = 16, n_batches: int = 4) -> None:
    rng = np.random.default_rng(3)
    template = build_model("rm3")
    samplers, generators = locality_samplers(template, k, seed=11, universe=8192)
    profiles = {
        name: [gen.generate(4 * batch_size * 20)]
        for name, gen in generators.items()
    }
    batches = [
        template.sample_batch(rng, batch_size, samplers=samplers)
        for _ in range(n_batches)
    ]

    base = ModelRunner(
        build_model("rm3"),
        RunnerConfig(kind=BackendKind.SSD, host_cache_entries=2048),
    )
    r_base = base.run_batches(batches)

    cache = ModelRunner(
        build_model("rm3"),
        RunnerConfig(kind=BackendKind.NDP),
        ndp_engine_config=NdpEngineConfig(embcache_slots=65536),
    )
    r_cache = cache.run_batches(batches)

    part = ModelRunner(
        build_model("rm3"),
        RunnerConfig(kind=BackendKind.NDP, partition_entries=2048),
        partition_profiles=profiles,
        ndp_engine_config=NdpEngineConfig(embcache_slots=65536),
    )
    r_part = part.run_batches(batches)

    print(f"\n=== K={k} ({'high' if k == 0 else 'low'} locality) ===")
    print(f"baseline SSD + host LRU : {r_base.steady_latency * 1e3:8.2f} ms "
          f"(LRU hit rate {base.host_cache_hit_rate():.0%})")
    print(f"RecSSD + SSD cache      : {r_cache.steady_latency * 1e3:8.2f} ms "
          f"(SSD cache hit rate {cache.ssd_emb_cache_hit_rate():.0%}, "
          f"speedup {r_base.steady_latency / r_cache.steady_latency:.2f}x)")
    print(f"RecSSD + static part.   : {r_part.steady_latency * 1e3:8.2f} ms "
          f"(partition hit rate {part.partition_hit_rate():.0%}, "
          f"speedup {r_base.steady_latency / r_part.steady_latency:.2f}x)")


def main() -> None:
    for k in (0, 2):
        study(k)


if __name__ == "__main__":
    main()
