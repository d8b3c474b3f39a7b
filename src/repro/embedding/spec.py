"""Embedding table specification: shape, element type, flash layout."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from ..params import PosCount, check_domains
from ..quant import QuantSpec

__all__ = ["Layout", "TableSpec"]


class Layout(Enum):
    """How vectors map to flash pages.

    ``ONE_PER_PAGE`` is the paper's evaluation assumption for the large
    sparse-access tables (high miss rates make block packing useless);
    ``PACKED`` stores ``page_bytes // row_bytes`` vectors per page, used
    for the small tables of the MLP-dominated models and for the SEQ
    microbenchmark where spatial locality matters.
    """

    ONE_PER_PAGE = "one_per_page"
    PACKED = "packed"


@dataclass(frozen=True)
class TableSpec:
    name: str
    rows: PosCount
    dim: PosCount
    quant: QuantSpec = field(default_factory=QuantSpec)
    layout: Layout = Layout.ONE_PER_PAGE

    __post_init__ = check_domains

    # ------------------------------------------------------------------
    @property
    def row_bytes(self) -> int:
        return self.quant.row_bytes(self.dim)

    @property
    def logical_bytes(self) -> int:
        return self.rows * self.row_bytes

    def rows_per_page(self, page_bytes: int) -> int:
        if self.layout is Layout.ONE_PER_PAGE:
            return 1
        per_page = page_bytes // self.row_bytes
        if per_page < 1:
            raise ValueError(
                f"row of {self.row_bytes} bytes does not fit a {page_bytes}B page"
            )
        return per_page

    def table_pages(self, page_bytes: int) -> int:
        per_page = self.rows_per_page(page_bytes)
        return -(-self.rows // per_page)

    def shard(self, shard_index: int, rows: int) -> "TableSpec":
        """Spec for one row shard of this table.

        Same dim/quant/layout; ``rows`` is the shard-local row count and
        the name is suffixed so the shard is distinguishable in logs and
        on-device placement (``events@s2`` is shard 2 of ``events``).
        """
        return replace(self, name=f"{self.name}@s{shard_index}", rows=rows)
