"""RecSSD's contribution: the in-FTL NDP SparseLengthsSum engine, and the
operator's ``(indices, lengths)`` input (:class:`Bags`) every layer reads."""

from .bags import Bags
from .config import CONFIG_HEADER_BYTES, PAIR_BYTES, SlsConfig, build_pairs
from .embcache import DirectMappedEmbeddingCache
from .engine import NdpEngineConfig, NdpSlsEngine, SlsResultPayload
from .extract import extract_vectors
from .request import PageWork, SlsRequestEntry, SlsState

__all__ = [
    "Bags",
    "CONFIG_HEADER_BYTES",
    "PAIR_BYTES",
    "SlsConfig",
    "build_pairs",
    "DirectMappedEmbeddingCache",
    "NdpEngineConfig",
    "NdpSlsEngine",
    "SlsResultPayload",
    "extract_vectors",
    "PageWork",
    "SlsRequestEntry",
    "SlsState",
]
