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

Each system is a scenario spec whose tenant carries its backend config
(the host LRU, the static partition) and the same recorded batches.
"""

import numpy as np

from repro.core.engine import NdpEngineConfig
from repro.experiments.common import (
    figure_run,
    figure_spec,
    hit_rate,
    locality_samplers,
    steady_interval,
)
from repro.models import BackendKind, RunnerConfig, build_model


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

    base, r_base = figure_run(
        figure_spec("rm3", batches, RunnerConfig(kind=BackendKind.SSD, host_cache_entries=2048)),
        build_model("rm3"),
    )
    cache, r_cache = figure_run(
        figure_spec("rm3", batches, RunnerConfig(kind=BackendKind.NDP)),
        build_model("rm3"),
        ndp=NdpEngineConfig(embcache_slots=65536),
    )
    part, r_part = figure_run(
        figure_spec("rm3", batches, RunnerConfig(kind=BackendKind.NDP, partition_entries=2048)),
        build_model("rm3"),
        ndp=NdpEngineConfig(embcache_slots=65536),
        partition_profiles=profiles,
    )
    base_s, cache_s, part_s = map(steady_interval, (r_base, r_cache, r_part))

    print(f"\n=== K={k} ({'high' if k == 0 else 'low'} locality) ===")
    print(f"baseline SSD + host LRU : {base_s * 1e3:8.2f} ms "
          f"(LRU hit rate {hit_rate(b.host_cache for b in base.backends()):.0%})")
    print(f"RecSSD + SSD cache      : {cache_s * 1e3:8.2f} ms "
          f"(SSD cache hit rate {hit_rate([cache.system.device.ndp.emb_cache]):.0%}, "
          f"speedup {base_s / cache_s:.2f}x)")
    print(f"RecSSD + static part.   : {part_s * 1e3:8.2f} ms "
          f"(partition hit rate {hit_rate(b.partition for b in part.backends()):.0%}, "
          f"speedup {base_s / part_s:.2f}x)")


def main() -> None:
    for k in (0, 2):
        study(k)


if __name__ == "__main__":
    main()
