"""Embedding layer: tables, layouts, caches, SLS backends, the embedding stage."""

from .backends import (
    DramSlsBackend,
    NdpSlsBackend,
    SlsBackend,
    SlsOpResult,
    SsdSlsBackend,
    flatten_bags,
)
from .caches import SetAssociativeLru, StaticPartitionCache, profile_hot_rows
from .data import DenseTableData, TableData, VirtualTableData
from .placement import HeatTracker, LayoutMigrator, heat_from_rows, profile_heat
from .spec import Layout, TableSpec
from .stage import EmbeddingStage, EmbStageResult
from .table import EmbeddingTable, TablePageContent, TableRegion

__all__ = [
    "DramSlsBackend",
    "NdpSlsBackend",
    "SlsBackend",
    "SlsOpResult",
    "SsdSlsBackend",
    "flatten_bags",
    "SetAssociativeLru",
    "StaticPartitionCache",
    "profile_hot_rows",
    "DenseTableData",
    "TableData",
    "VirtualTableData",
    "HeatTracker",
    "LayoutMigrator",
    "heat_from_rows",
    "profile_heat",
    "Layout",
    "TableSpec",
    "EmbeddingStage",
    "EmbStageResult",
    "EmbeddingTable",
    "TablePageContent",
    "TableRegion",
]
