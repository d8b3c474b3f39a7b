"""Ablations of RecSSD design choices.

The paper motivates several design parameters without sweeping them; the
DESIGN.md inventory calls these out for ablation:

* ``translation_cost`` — Section 6.1: "with faster SSD microprocessors or
  custom logic, the Translation time could be significantly reduced".
  Sweeps the ARM per-byte/per-page translation cost from the calibrated
  A9 value down to near-zero (custom logic) and up (slower cores).
* ``channels`` — internal parallelism is the headline mechanism; sweeps
  the channel count to show NDP's advantage scales with it while the
  baseline (command-bound) barely moves.
* ``embcache`` — SSD-side direct-mapped cache size under a locality trace.
* ``window`` — the SLS scheduling layer's inflight-page window (buffer
  budget vs bandwidth utilization).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

import numpy as np

from ..core.engine import NdpEngineConfig
from ..embedding.backends import NdpSlsBackend, SsdSlsBackend
from ..embedding.spec import Layout, TableSpec
from ..embedding.table import EmbeddingTable
from ..ftl.cpu import FtlCpuCosts
from ..host.system import System
from ..ssd.presets import cosmos_plus_config
from ..traces.locality import LocalityTraceGenerator
from .common import ExperimentResult, speedup

__all__ = [
    "run_translation_cost",
    "run_channel_scaling",
    "run_embcache_size",
    "run_inflight_window",
    "run",
]

TABLE_ROWS = 1 << 16
DIM = 32
LOOKUPS = 40
BATCH = 32


def _build(
    channels: int = 8,
    cpu_costs: Optional[FtlCpuCosts] = None,
    ndp: Optional[NdpEngineConfig] = None,
) -> tuple[System, EmbeddingTable]:
    config = cosmos_plus_config(min_capacity_pages=TABLE_ROWS + (1 << 16), ndp=ndp)
    # Keep total capacity constant while varying channel count: fewer
    # channels get proportionally more blocks per die.
    scale = -(-config.geometry.channels // channels)
    geometry = replace(
        config.geometry,
        channels=channels,
        blocks_per_die=config.geometry.blocks_per_die * scale,
    )
    config = replace(config, geometry=geometry)
    if cpu_costs is not None:
        config = replace(config, cpu_costs=cpu_costs)
    system = System(config)
    table = EmbeddingTable(
        TableSpec("abl", rows=TABLE_ROWS, dim=DIM, layout=Layout.ONE_PER_PAGE),
        seed=3,
    )
    table.attach(system.device)
    return system, table


def _random_bags(seed: int = 0) -> List[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, TABLE_ROWS, size=LOOKUPS) for _ in range(BATCH)]


def run_translation_cost(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """NDP latency vs the SSD CPU's translation speed (1x = ARM A9)."""
    scales = (0.0, 0.5, 1.0, 2.0) if fast else (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
    bags = _random_bags(seed)
    rows = []
    base_system, base_table = _build()
    base = SsdSlsBackend(base_system, base_table).run_sync(bags)
    for scale in scales:
        default = FtlCpuCosts()
        costs = replace(
            default,
            sls_translate_fixed_s=default.sls_translate_fixed_s * scale,
            sls_translate_byte_s=default.sls_translate_byte_s * scale,
            sls_pair_s=default.sls_pair_s * scale,
        )
        system, table = _build(cpu_costs=costs)
        ndp = NdpSlsBackend(system, table).run_sync(bags)
        if not np.allclose(ndp.values, base.values, rtol=1e-4, atol=1e-5):
            raise AssertionError("ablation: results diverged")
        rows.append(
            {
                "ablation": "translation_cost",
                "value": scale,
                "base_ms": base.latency * 1e3,
                "ndp_ms": ndp.latency * 1e3,
                "ndp_speedup": speedup(base.latency, ndp.latency),
            }
        )
    return ExperimentResult(
        "ablation_translation",
        "NDP speedup vs SSD-CPU translation cost (0 = custom logic)",
        rows,
    )


def run_channel_scaling(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Internal parallelism: NDP tracks channel count, baseline does not."""
    channel_counts = (2, 8) if fast else (1, 2, 4, 8, 16)
    bags = _random_bags(seed)
    rows = []
    for channels in channel_counts:
        sys_b, tab_b = _build(channels=channels)
        sys_n, tab_n = _build(channels=channels)
        base = SsdSlsBackend(sys_b, tab_b).run_sync(bags)
        ndp = NdpSlsBackend(sys_n, tab_n).run_sync(bags)
        rows.append(
            {
                "ablation": "channels",
                "value": channels,
                "base_ms": base.latency * 1e3,
                "ndp_ms": ndp.latency * 1e3,
                "ndp_speedup": speedup(base.latency, ndp.latency),
            }
        )
    return ExperimentResult(
        "ablation_channels",
        "NDP vs baseline across flash channel counts",
        rows,
    )


def run_embcache_size(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """SSD-side cache size under a high-locality (K=0) trace."""
    slot_counts = (0, 4096, 65536) if fast else (0, 1024, 4096, 16384, 65536)
    gen_template = dict(table_rows=TABLE_ROWS, k=0, seed=seed, universe=4096)
    rows = []
    for slots in slot_counts:
        system, table = _build(ndp=NdpEngineConfig(embcache_slots=slots))
        gen = LocalityTraceGenerator(**gen_template)
        backend = NdpSlsBackend(system, table)
        latencies = []
        for _batch in range(3):
            bags = gen.generate_bags(BATCH, LOOKUPS)
            latencies.append(backend.run_sync(bags).latency)
        cache = system.device.ndp.emb_cache
        rows.append(
            {
                "ablation": "embcache_slots",
                "value": slots,
                "ndp_ms": latencies[-1] * 1e3,
                "hit_rate": cache.hit_rate,
            }
        )
    return ExperimentResult(
        "ablation_embcache",
        "SSD-side embedding cache size under a K=0 locality trace",
        rows,
    )


def run_inflight_window(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """The SLS scheduler's inflight-page window (buffer vs parallelism)."""
    windows = (4, 32, 128) if fast else (2, 4, 8, 16, 32, 64, 128, 256)
    bags = _random_bags(seed)
    rows = []
    for window in windows:
        system, table = _build(ndp=NdpEngineConfig(inflight_pages_window=window))
        ndp = NdpSlsBackend(system, table).run_sync(bags)
        rows.append(
            {
                "ablation": "inflight_window",
                "value": window,
                "ndp_ms": ndp.latency * 1e3,
            }
        )
    return ExperimentResult(
        "ablation_window",
        "NDP latency vs SLS scheduling window size",
        rows,
    )


def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    parts = [
        run_translation_cost(fast=fast, seed=seed),
        run_channel_scaling(fast=fast, seed=seed),
        run_embcache_size(fast=fast, seed=seed),
        run_inflight_window(fast=fast, seed=seed),
    ]
    rows = [row for part in parts for row in part.rows]
    return ExperimentResult(
        "ablations",
        "Design-choice ablations (translation cost, channels, caches, window)",
        rows,
    )
