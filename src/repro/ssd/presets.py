"""Device presets.

``cosmos_plus`` reproduces the paper's prototype parameters: 8 channels,
10K IOPS/channel at 16KB pages (just under 1.4GB/s sequential), dual ARM
cores with firmware costs calibrated so whole-stack random block reads
sustain ~10-14K IOPS (Section 3.2), PCIe Gen2 x8.

Geometry is sized to the workload: ``min_capacity_pages`` picks
``blocks_per_die`` so mapping arrays stay proportional to what an
experiment actually addresses (the paper notes absolute table size does
not affect the results — access patterns do).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from ..core.engine import NdpEngineConfig
from ..flash.geometry import FlashGeometry
from ..flash.timing import FlashTiming
from ..ftl.cpu import FtlCpuCosts
from ..ftl.ftl import FtlConfig
from ..nvme.pcie import PcieConfig
from ..sim.kernel import Simulator
from .device import SsdDevice, SsdConfig

__all__ = ["cosmos_plus_config", "cosmos_plus", "preload_capacity_pages",
           "small_ssd_config", "small_ssd"]

# The Cosmos+ array; only ``blocks_per_die`` scales with the workload.
CHANNELS, WAYS, PAGES_PER_BLOCK, PAGE_BYTES, LBA_BYTES = 8, 4, 256, 16 * 1024, 4096
OVERPROVISION, SLBA_ALIGNMENT_LBAS = 0.20, 1 << 14


def cosmos_plus_config(
    min_capacity_pages: int = 1 << 20,
    page_cache_pages: int = 4096,
    ndp: Optional[NdpEngineConfig] = None,
    slba_alignment_lbas: int = SLBA_ALIGNMENT_LBAS,
) -> SsdConfig:
    """Paper-calibrated configuration, sized to hold ``min_capacity_pages``."""
    physical_pages = math.ceil(min_capacity_pages / (1.0 - OVERPROVISION))
    blocks_per_die = max(16, -(-physical_pages // (CHANNELS * WAYS * PAGES_PER_BLOCK)))
    geometry = FlashGeometry(
        channels=CHANNELS,
        ways=WAYS,
        blocks_per_die=blocks_per_die,
        pages_per_block=PAGES_PER_BLOCK,
        page_bytes=PAGE_BYTES,
    )
    return SsdConfig(
        geometry=geometry,
        timing=FlashTiming(),
        ftl=FtlConfig(
            lba_bytes=LBA_BYTES,
            overprovision=OVERPROVISION,
            page_cache_pages=page_cache_pages,
        ),
        cpu_costs=FtlCpuCosts(),
        pcie=PcieConfig(),
        ndp=ndp or NdpEngineConfig(),
        slba_alignment_lbas=slba_alignment_lbas,
    )


def preload_capacity_pages(table_pages: Iterable[int]) -> int:
    """The ``min_capacity_pages`` at which :func:`cosmos_plus_config`
    can attach tables of ``table_pages`` pages each.

    ``Ftl.preload_region`` stripes a table over ``min(dies, pages)`` dies
    and reserves whole blocks on each, so a small table takes a block per
    die it touches; and each table's LBA range starts on an SLBA-aligned
    slot of its own.  The geometry must hold both sums.
    """
    dies = CHANNELS * WAYS
    slot_pages = SLBA_ALIGNMENT_LBAS * LBA_BYTES // PAGE_BYTES
    blocks = slots = 0
    for pages in table_pages:
        stripe = min(dies, pages)
        blocks += stripe * math.ceil(math.ceil(pages / stripe) / PAGES_PER_BLOCK)
        slots += -(-pages // slot_pages)
    blocks_per_die = -(-blocks // dies)
    return max(
        int(blocks_per_die * dies * PAGES_PER_BLOCK * (1.0 - OVERPROVISION)),
        slots * slot_pages,
    )


def cosmos_plus(
    sim: Simulator,
    min_capacity_pages: int = 1 << 20,
    page_cache_pages: int = 4096,
    ndp: Optional[NdpEngineConfig] = None,
) -> SsdDevice:
    return SsdDevice(
        sim, cosmos_plus_config(min_capacity_pages, page_cache_pages, ndp)
    )


def small_ssd_config(
    channels: int = 2,
    ways: int = 2,
    blocks_per_die: int = 16,
    pages_per_block: int = 16,
    page_bytes: int = 4096,
    page_cache_pages: int = 8,
    overprovision: float = 0.25,
    ndp: Optional[NdpEngineConfig] = None,
) -> SsdConfig:
    """A tiny device for unit tests (fast GC / wear / full-device paths)."""
    geometry = FlashGeometry(
        channels=channels,
        ways=ways,
        blocks_per_die=blocks_per_die,
        pages_per_block=pages_per_block,
        page_bytes=page_bytes,
    )
    return SsdConfig(
        geometry=geometry,
        ftl=FtlConfig(
            lba_bytes=1024,
            overprovision=overprovision,
            page_cache_pages=page_cache_pages,
            gc_low_watermark=2,
            gc_high_watermark=3,
            wear_threshold=8,
        ),
        ndp=ndp or NdpEngineConfig(max_entries=4, inflight_pages_window=8),
        slba_alignment_lbas=64,
    )


def small_ssd(sim: Simulator, **kwargs) -> SsdDevice:
    return SsdDevice(sim, small_ssd_config(**kwargs))
