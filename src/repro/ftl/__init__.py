"""Flash translation layer: mapping, allocation, GC, wear leveling, cache."""

from .blocks import BlockManager, OutOfSpaceError
from .cpu import FtlCpu, FtlCpuCosts
from .ftl import FtlConfig, GreedyFtl
from .gc import GarbageCollector
from .layout import FrequencyLayout
from .mapping import UNMAPPED, MappingTable
from .pagecache import PageCache
from .wear import WearLeveler

__all__ = [
    "BlockManager",
    "OutOfSpaceError",
    "FtlCpu",
    "FtlCpuCosts",
    "FtlConfig",
    "GreedyFtl",
    "GarbageCollector",
    "FrequencyLayout",
    "MappingTable",
    "UNMAPPED",
    "PageCache",
    "WearLeveler",
]
