"""Model wiring: a model's tables on storage backends, their knobs, and
the device size the tables need (a scenario tenant's ``backend`` carries
the knobs to ``register_model``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..embedding.backends import DramSlsBackend, NdpSlsBackend, SsdSlsBackend
from ..embedding.caches import SetAssociativeLru, StaticPartitionCache
from ..embedding.table import EmbeddingTable
from ..host.system import System
from ..params import Count, check_domains
from ..ssd.presets import preload_capacity_pages
from .base import RecModel

__all__ = ["BackendKind", "RunnerConfig", "build_backends", "required_capacity_pages"]


class BackendKind(str, Enum):
    DRAM = "dram"
    SSD = "ssd"
    NDP = "ndp"


@dataclass(frozen=True)
class RunnerConfig:
    kind: BackendKind
    host_cache_entries: Count = 0   # baseline per-table LRU (16-way)
    partition_entries: Count = 0    # NDP per-table static partition
    # Pre-fill the SSD page cache with small packed tables, modelling the
    # steady state the paper measures ("average latency results across many
    # batches") without simulating dozens of warm-up batches.
    prewarm_page_cache: bool = False

    __post_init__ = check_domains


def required_capacity_pages(model: RecModel, page_bytes: int = 16 * 1024) -> int:
    pages = [f.spec.table_pages(page_bytes) for f in model.features]
    # Alignment padding (one slot minimum per table) plus free-space
    # slack, or what preloading the tables reserves, whichever is more.
    return max(int(sum(pages) * 1.3) + 64 * 1024, preload_capacity_pages(pages))


def build_backends(
    model: RecModel,
    config: RunnerConfig,
    system: System,
    device=None,
    tables: Optional[Dict[str, "EmbeddingTable"]] = None,
    partition_profiles: Optional[Dict[str, List[np.ndarray]]] = None,
    features: Optional[Sequence] = None,
) -> Dict[str, object]:
    """Construct one SLS backend per model table on ``system``.

    ``device`` selects which attached SSD serves the tables (default: the
    primary); ``tables`` substitutes replica or shard-local tables (the
    serving layer replicates/shards models across devices this way).
    ``features`` restricts construction to a subset of the model's sparse
    features — the shard-aware path builds only the table pieces a given
    device owns (keys of ``tables`` and the returned dict stay the
    *feature* names even when a shard table's spec is suffixed).
    """
    device = device if device is not None else system.device
    tables = tables if tables is not None else model.tables
    features = list(features) if features is not None else model.features
    backends: Dict[str, object] = {}
    for feature in features:
        table = tables[feature.name]
        if config.kind is BackendKind.DRAM:
            backends[feature.name] = DramSlsBackend(system, table)
            continue
        if not table.attached:
            table.attach(device)
        elif table.device is not device:
            # Silent fallback would route traffic to wherever the table
            # already lives (possibly another system), not to `device`.
            raise ValueError(
                f"table {feature.name!r} is already attached to a different "
                f"device; pass replica tables (same spec/data) to place a "
                f"model on multiple SSDs, and use one model instance per "
                f"system"
            )
        if config.kind is BackendKind.SSD:
            cache = None
            if config.host_cache_entries > 0:
                cache = SetAssociativeLru(config.host_cache_entries, ways=16)
            backends[feature.name] = SsdSlsBackend(system, table, host_cache=cache)
        else:
            partition = None
            if config.partition_entries > 0:
                profile = (partition_profiles or {}).get(feature.name)
                if profile is None:
                    raise ValueError(
                        f"partition requested but no profile for {feature.name}"
                    )
                partition = StaticPartitionCache.from_profile(
                    table, profile, config.partition_entries
                )
            backends[feature.name] = NdpSlsBackend(system, table, partition=partition)
    return backends
