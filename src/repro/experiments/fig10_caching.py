"""Figure 10: exploiting locality — caching strategies on top of NDP.

Three systems over locality-parameterized traces (K = 0/1/2 -> 13%/54%/72%
unique accesses):

* baseline: conventional SSD + 16-way LRU host cache (2K entries/table)
* RecSSD + SSD-side direct-mapped embedding cache (panels a-c)
* RecSSD + static host partition (2K entries/table, from input profiling)
  on top of the SSD cache (panels d-f)

Expected shape: the baseline wins at high locality (K=0, its LRU reaches
~84% hits); RecSSD wins at low locality (K=2) where most pages must come
off flash; static partitioning recovers host-DRAM benefits for RecSSD,
lifting it to ~2x at low locality.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.engine import NdpEngineConfig
from ..models import BackendKind, RunnerConfig, build_model
from ..models.zoo import EMBEDDING_DOMINATED
from .common import (
    ExperimentResult,
    figure_run,
    figure_spec,
    hit_rate,
    locality_samplers,
    speedup,
    steady_interval,
)

__all__ = ["run"]

HOST_CACHE_ENTRIES = 2048
PARTITION_ENTRIES = 2048
EMBCACHE_SLOTS = 65536
UNIVERSE = 8192


def run(
    fast: bool = True,
    seed: int = 0,
    models: Sequence[str] = EMBEDDING_DOMINATED,
    k_values: Sequence[int] = (0, 1, 2),
    batch_sizes: Optional[Sequence[int]] = None,
) -> ExperimentResult:
    if fast:
        models = ("rm1",)
        k_values = (0, 2)
        batch_sizes = batch_sizes or (8, 32)
        n_batches, warmup = 4, 1
        profile_batches = 4
    else:
        batch_sizes = batch_sizes or (1, 4, 16, 32)
        n_batches, warmup = 6, 2
        profile_batches = 8
    rng = np.random.default_rng(seed)
    rows: List[Dict[str, object]] = []
    for name in models:
        for k in k_values:
            for batch in batch_sizes:
                template = build_model(name, seed=seed)
                samplers, generators = locality_samplers(
                    template, k, seed=seed + 7 * k, universe=UNIVERSE
                )
                # Profiling pass: the static partition is built from input
                # profiling of earlier traffic from the same distribution.
                profiles: Dict[str, List[np.ndarray]] = {
                    fname: [
                        gen.generate(
                            profile_batches * batch * _lookups(template, fname)
                        )
                    ]
                    for fname, gen in generators.items()
                }
                batches = [
                    template.sample_batch(rng, batch, samplers=samplers)
                    for _ in range(n_batches)
                ]

                def measure(config, **kwargs):
                    spec = figure_spec(name, batches, config)
                    return figure_run(spec, build_model(name, seed=seed), **kwargs)

                ndp = NdpEngineConfig(embcache_slots=EMBCACHE_SLOTS)
                base_server, base = measure(
                    RunnerConfig(BackendKind.SSD, host_cache_entries=HOST_CACHE_ENTRIES)
                )
                cache_server, ndp_cache = measure(RunnerConfig(BackendKind.NDP), ndp=ndp)
                part_server, ndp_part = measure(
                    RunnerConfig(BackendKind.NDP, partition_entries=PARTITION_ENTRIES),
                    ndp=ndp,
                    partition_profiles=profiles,
                )

                ref = base[-1].output
                for candidate, label in ((ndp_cache, "cache"), (ndp_part, "part")):
                    if not np.allclose(candidate[-1].output, ref, rtol=1e-4, atol=1e-5):
                        raise AssertionError(f"fig10: {name} {label} outputs diverge")

                base_s, cache_s, part_s = (
                    steady_interval(r, warmup) for r in (base, ndp_cache, ndp_part)
                )
                rows.append(
                    {
                        "model": name,
                        "K": k,
                        "batch": batch,
                        "base_ms": base_s * 1e3,
                        "ndp_cache_ms": cache_s * 1e3,
                        "speedup_cache": speedup(base_s, cache_s),
                        "ndp_part_ms": part_s * 1e3,
                        "speedup_part": speedup(base_s, part_s),
                        "lru_hit": hit_rate(b.host_cache for b in base_server.backends()),
                        "ssd_cache_hit": hit_rate([cache_server.system.device.ndp.emb_cache]),
                        "part_hit": hit_rate(b.partition for b in part_server.backends()),
                    }
                )
    return ExperimentResult(
        experiment="fig10",
        title="RecSSD vs baseline with caching, across locality K and batch size",
        rows=rows,
        notes=[
            f"host LRU/partition = {HOST_CACHE_ENTRIES} entries/table, "
            f"SSD cache = {EMBCACHE_SLOTS} direct-mapped slots, "
            f"active-ID universe = {UNIVERSE}/table"
        ],
    )


def _lookups(model, feature_name: str) -> int:
    for f in model.features:
        if f.name == feature_name:
            return f.lookups
    raise KeyError(feature_name)
