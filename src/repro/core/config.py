"""SLS command configuration (the payload of the NDP config-write).

Mirrors Section 4.3: the parameters passed to the SSD are the embedding
vector dimensions (attribute size / vector length), the number of input
embeddings to gather, the number of result embeddings to return, and a
list of ``(input_id, result_id)`` pairs **sorted by input id** so the
weak SSD CPU can process them in one page-ordered scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..quant import QuantSpec
from .bags import Bags

__all__ = ["SlsConfig", "CONFIG_HEADER_BYTES", "PAIR_BYTES", "build_pairs", "sorted_pairs"]

CONFIG_HEADER_BYTES = 64
PAIR_BYTES = 8  # (input_id: u32, result_id: u32)


def sorted_pairs(ids: np.ndarray, rids: np.ndarray) -> np.ndarray:
    """``[n, 2]`` (input_id, result_id) pairs sorted by input id, then
    result id — the page-ordered scan of Section 4.3.

    ``rids`` ascend, as a :class:`~repro.core.bags.Bags`' do, so a stable
    sort by input id alone leaves equal ids in result-id order.
    """
    order = ids.argsort(kind="stable")
    pairs = np.empty((order.size, 2), dtype=np.int64)
    pairs[:, 0] = ids[order]
    pairs[:, 1] = rids[order]
    return pairs


def build_pairs(bags) -> np.ndarray:
    """Build a sorted (input_id, result_id) pair array from per-result bags.

    ``bags[r]`` holds the input ids accumulated into result ``r`` — one bag
    per (sample, table) lookup set, exactly the SparseLengthsSum layout.
    """
    bags = Bags.of(bags)
    return sorted_pairs(bags.ids, bags.rids)


@dataclass
class SlsConfig:
    """One NDP SLS operation over a single embedding table."""

    table_base_lba: int
    request_id: int
    pairs: np.ndarray                 # [n, 2] int64, sorted by input id
    num_results: int
    vec_dim: int
    quant: QuantSpec = field(default_factory=QuantSpec)
    rows_per_page: int = 1            # layout: vectors packed per flash page
    table_rows: Optional[int] = None  # for validation when known

    def __post_init__(self) -> None:
        pairs = self.pairs
        if not isinstance(pairs, np.ndarray):
            pairs = np.asarray(pairs)
        if pairs.dtype != np.int64:
            # A cast would read 1.5 as row 1 and True as row 1.
            if pairs.size and pairs.dtype.kind not in "iu":
                raise TypeError(f"pairs must be integers, got dtype {pairs.dtype}")
            pairs = pairs.astype(np.int64)
        self.pairs = pairs
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("pairs must be an [n, 2] array")
        if self.num_results < 1:
            raise ValueError("num_results must be >= 1")
        if self.vec_dim < 1:
            raise ValueError("vec_dim must be >= 1")
        if self.rows_per_page < 1:
            raise ValueError("rows_per_page must be >= 1")
        if pairs.size:
            # Where an op's ids are checked: the engine reads its bounds
            # off the sorted ends and checks nothing again.
            ids = pairs[:, 0]
            if np.logical_or.reduce(ids[1:] < ids[:-1]):
                raise ValueError("pairs must be sorted by input id")
            # Sorted: the least and greatest ids are the ends.
            if ids[0] < 0:
                raise ValueError("negative input id")
            # One reduction: a negative id read as uint64 is >= 2**63.
            if np.maximum.reduce(pairs[:, 1].view(np.uint64)) >= self.num_results:
                raise ValueError("result id out of range")
            if self.table_rows is not None and ids[-1] >= self.table_rows:
                raise ValueError("input id exceeds table rows")

    # ------------------------------------------------------------------
    @property
    def num_inputs(self) -> int:
        return int(self.pairs.shape[0])

    @property
    def row_bytes(self) -> int:
        return self.quant.row_bytes(self.vec_dim)

    @property
    def encoded_bytes(self) -> int:
        """Size of the config blob DMAed to the SSD."""
        return CONFIG_HEADER_BYTES + self.num_inputs * PAIR_BYTES

    @property
    def result_bytes(self) -> int:
        """Result embeddings are returned as float32 regardless of storage."""
        return self.num_results * self.vec_dim * 4

    def result_pages(self, page_bytes: int) -> int:
        return max(1, -(-self.result_bytes // page_bytes))

    def pages_touched(self) -> np.ndarray:
        """Distinct table-relative page indices this request gathers from."""
        if not self.pairs.size:
            return np.zeros(0, dtype=np.int64)
        return np.unique(self.pairs[:, 0] // self.rows_per_page)
