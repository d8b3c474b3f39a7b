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
from ..serving.runner import ModelRunner
from .common import ExperimentResult, locality_samplers, speedup

__all__ = ["run"]

HOST_CACHE_ENTRIES = 2048
PARTITION_ENTRIES = 2048
EMBCACHE_SLOTS = 65536
UNIVERSE = 8192


def run(
    fast: bool = True,
    seed: int = 0,
    models: Sequence[str] = ("rm1", "rm2", "rm3"),
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

                base_runner = ModelRunner(
                    build_model(name, seed=seed),
                    RunnerConfig(
                        kind=BackendKind.SSD,
                        host_cache_entries=HOST_CACHE_ENTRIES,
                        warmup_batches=warmup,
                    ),
                )
                base = base_runner.run_batches(batches)

                cache_runner = ModelRunner(
                    build_model(name, seed=seed),
                    RunnerConfig(kind=BackendKind.NDP, warmup_batches=warmup),
                    ndp_engine_config=NdpEngineConfig(embcache_slots=EMBCACHE_SLOTS),
                )
                ndp_cache = cache_runner.run_batches(batches)

                part_runner = ModelRunner(
                    build_model(name, seed=seed),
                    RunnerConfig(
                        kind=BackendKind.NDP,
                        partition_entries=PARTITION_ENTRIES,
                        warmup_batches=warmup,
                    ),
                    partition_profiles=profiles,
                    ndp_engine_config=NdpEngineConfig(embcache_slots=EMBCACHE_SLOTS),
                )
                ndp_part = part_runner.run_batches(batches)

                ref = base.outputs[-1]
                for candidate, label in ((ndp_cache, "cache"), (ndp_part, "part")):
                    if not np.allclose(candidate.outputs[-1], ref, rtol=1e-4, atol=1e-5):
                        raise AssertionError(f"fig10: {name} {label} outputs diverge")

                rows.append(
                    {
                        "model": name,
                        "K": k,
                        "batch": batch,
                        "base_ms": base.steady_latency * 1e3,
                        "ndp_cache_ms": ndp_cache.steady_latency * 1e3,
                        "speedup_cache": speedup(
                            base.steady_latency, ndp_cache.steady_latency
                        ),
                        "ndp_part_ms": ndp_part.steady_latency * 1e3,
                        "speedup_part": speedup(
                            base.steady_latency, ndp_part.steady_latency
                        ),
                        "lru_hit": base_runner.host_cache_hit_rate(),
                        "ssd_cache_hit": cache_runner.ssd_emb_cache_hit_rate(),
                        "part_hit": part_runner.partition_hit_rate(),
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


def main() -> None:  # pragma: no cover
    print(run(fast=True).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
