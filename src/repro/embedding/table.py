"""Embedding tables: data + flash placement + reference SLS.

``EmbeddingTable.attach`` places the table in an aligned LBA region of a
simulated SSD and preloads its image as a virtual flash region.  The
same object provides the canonical in-DRAM reference result
(`ref_sls`), so every storage backend can be verified bit-for-bit
(modulo float accumulation order) against it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.bags import Bags, BagsLike
from ..core.config import SlsConfig, sorted_pairs
from ..core.vecops import segment_sum_offsets
from ..ftl.layout import FrequencyLayout
from ..quant import EmbDtype, decode_vectors, encode_vectors
from ..ssd.device import SsdDevice
from .data import MappedTableData, TableData, VirtualTableData
from .spec import TableSpec

__all__ = ["TablePageContent", "TableRegion", "EmbeddingTable"]


class TablePageContent:
    """Virtual content of one flash page of a table."""

    __slots__ = ("table", "page_index")

    def __init__(self, table: "EmbeddingTable", page_index: int):
        self.table = table
        self.page_index = page_index

    def vectors(self, slots: np.ndarray) -> np.ndarray:
        """Canonical float32 vectors for in-page ``slots``.

        Slots address internal storage ranks; the table's layout (when
        present) resolves each rank to the external row stored there, so
        a layout re-pack retroactively "rewrites" this virtual page.
        """
        slots = np.asarray(slots, dtype=np.int64)
        rpp = self.table.rows_per_page
        ranks = self.page_index * rpp + slots
        if (self.page_index + 1) * rpp <= self.table.spec.rows:
            # Every page but a table's last lies wholly inside it: no
            # mask, no zero fill.
            return self.table.get_rows(self.table.external_ids(ranks))
        out = np.zeros((slots.size, self.table.spec.dim), dtype=np.float32)
        in_range = ranks < self.table.spec.rows
        if np.any(in_range):
            rows = self.table.external_ids(ranks[in_range])
            out[in_range] = self.table.get_rows(rows)
        return out

    def materialize(self) -> np.ndarray:
        """Encode the page's rows into a page-sized uint8 buffer."""
        spec = self.table.spec
        page_bytes = self.table.page_bytes
        buf = np.zeros(page_bytes, dtype=np.uint8)
        rpp = self.table.rows_per_page
        first = self.page_index * rpp
        count = min(rpp, spec.rows - first)
        if count > 0:
            rows = self.table.external_ids(
                np.arange(first, first + count, dtype=np.int64)
            )
            raw = self.table.data.get_rows(rows)
            stored = encode_vectors(raw, spec.quant)
            encoded = stored.view(np.uint8).reshape(count, spec.row_bytes)
            rows_view = buf[: rpp * spec.row_bytes].reshape(rpp, spec.row_bytes)
            rows_view[:count] = encoded
        return buf


_new_page = object.__new__


class TableRegion:
    """Flash-store region adapter covering the whole table."""

    def __init__(self, table: "EmbeddingTable"):
        self.table = table
        self.page_count = table.spec.table_pages(table.page_bytes)

    def page_content(self, offset: int) -> Optional[TablePageContent]:
        if not 0 <= offset < self.page_count:
            return None
        # ``TablePageContent(self.table, offset)`` without the frame of its
        # ``__init__``: every flash read of a virtual page builds one.
        page = _new_page(TablePageContent)
        page.table = self.table
        page.page_index = offset
        return page


class EmbeddingTable:
    """A table spec + data source, optionally attached to an SSD."""

    def __init__(
        self,
        spec: TableSpec,
        data: Optional[TableData] = None,
        seed: int = 0,
    ):
        self.spec = spec
        self.data = data or VirtualTableData(spec.rows, spec.dim, seed=seed)
        if (self.data.rows, self.data.dim) != (spec.rows, spec.dim):
            raise ValueError("data shape does not match spec")
        self.device: Optional[SsdDevice] = None
        self.base_lba: Optional[int] = None
        self._page_bytes: Optional[int] = None
        # Row -> page layout.  None keeps the legacy identity placement
        # (row i at rank i) with zero per-op overhead; ``set_heat``
        # before ``attach`` selects heat-ordered packing instead.
        self.layout: Optional[FrequencyLayout] = None
        self._heat: Optional[np.ndarray] = None
        # Online heat tracker (repro.embedding.placement.HeatTracker);
        # backends record accessed rows here when one is installed.
        self.heat_tracker = None

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def set_heat(self, heat: Optional[np.ndarray]) -> None:
        """Install a per-row access-frequency profile for placement.

        Must run before :meth:`attach` (rows-per-page depends on the
        device's page size, so the layout is built at attach time).
        ``None`` clears the profile; a uniform profile reproduces the
        legacy layout bit-identically.
        """
        if self.attached:
            raise RuntimeError("set_heat must run before attach")
        if heat is None:
            self._heat = None
            return
        heat = np.asarray(heat, dtype=np.float64)
        if heat.shape != (self.spec.rows,):
            raise ValueError(
                f"heat must have one entry per row ({self.spec.rows}), "
                f"got shape {heat.shape}"
            )
        self._heat = heat.copy()

    @property
    def heat(self) -> Optional[np.ndarray]:
        return self._heat

    def storage_ids(self, ids: np.ndarray) -> np.ndarray:
        """Internal storage ranks of external row ``ids`` (identity when
        no layout is installed)."""
        if self.layout is None:
            return np.asarray(ids, dtype=np.int64)
        return self.layout.storage_ids(ids)

    def external_ids(self, ranks: np.ndarray) -> np.ndarray:
        """External row ids stored at internal ``ranks``."""
        if self.layout is None:
            return np.asarray(ranks, dtype=np.int64)
        return self.layout.external_ids(ranks)

    # ------------------------------------------------------------------
    # Replication and sharding
    # ------------------------------------------------------------------
    def replica(self) -> "EmbeddingTable":
        """An unattached copy of this table for another device or host.

        It shares the *data object* (values match everywhere and one
        update commit is visible to every copy) and carries the heat
        profile (replicas serve the same popularity, so each packs the
        same layout on its own device).
        """
        clone = EmbeddingTable(self.spec, data=self.data)
        clone._heat = self._heat  # never mutated in place; set_heat replaces it
        return clone

    def row_shard(self, global_ids: np.ndarray, shard_index: int) -> "EmbeddingTable":
        """A shard-local table owning this table's rows ``global_ids``.

        The invariant (relied on by the serving layer's scatter-gather
        path): shard-local id ``l`` addresses the same vector as global id
        ``global_ids[l]`` in this table, so
        ``shard.get_rows(local) == parent.get_rows(global_ids[local])``
        bit-for-bit.  ``global_ids`` must be strictly ascending so that
        sorting by local id preserves the parent's sorted-by-global-id
        accumulation order inside order-sensitive backends (the NDP
        engine sums pairs sorted by input id).
        """
        global_ids = np.asarray(global_ids, dtype=np.int64)
        if global_ids.size > 1 and not np.all(np.diff(global_ids) > 0):
            raise ValueError("global_ids must be strictly ascending")
        shard = EmbeddingTable(
            self.spec.shard(shard_index, int(global_ids.size)),
            data=MappedTableData(self.data, global_ids),
        )
        if self._heat is not None and global_ids.size:
            # Shard-local heat is the parent profile restricted to the
            # rows this shard owns, so each shard packs its own pages.
            shard.set_heat(self._heat[global_ids])
        return shard

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def attach(self, device: SsdDevice) -> None:
        """Place and preload this table on ``device``."""
        if self.device is not None:
            raise RuntimeError(f"table {self.spec.name} already attached")
        self.device = device
        self._page_bytes = device.ftl.page_bytes
        self._build_layout()
        n_pages = self.spec.table_pages(self._page_bytes)
        self.base_lba = device.allocate_table_region(n_pages)
        base_lpn = self.base_lba // device.ftl.lbas_per_page
        device.ftl.preload_region(base_lpn, TableRegion(self))

    def attach_via_io(self, system) -> None:
        """Place the table and load it through the conventional write path.

        Unlike :meth:`attach` (which installs a zero-time virtual image),
        this writes every page's real encoded bytes through the driver,
        NVMe controller, FTL and flash — the way an actual deployment
        would load a table.  Intended for small tables and tests; the
        simulated time cost is real.
        """
        if self.device is not None:
            raise RuntimeError(f"table {self.spec.name} already attached")
        device = system.device
        self.device = device
        self._page_bytes = device.ftl.page_bytes
        self._build_layout()
        n_pages = self.spec.table_pages(self._page_bytes)
        self.base_lba = device.allocate_table_region(n_pages)
        driver = system.driver_for(device)
        lbas_per_page = device.ftl.lbas_per_page
        pending = {"n": n_pages}
        for page_index in range(n_pages):
            buf = TablePageContent(self, page_index).materialize()
            slba = self.base_lba + page_index * lbas_per_page

            def on_done(cpl) -> None:
                if not cpl.ok:
                    raise RuntimeError(f"table load write failed: {cpl.status}")
                pending["n"] -= 1

            driver.write(slba, lbas_per_page, buf, on_done)
        system.sim.run_until(lambda: pending["n"] == 0)

    def _build_layout(self) -> None:
        """Turn an installed heat profile into a frequency layout.

        Runs at attach time (rows-per-page needs the device page size).
        Without a profile the layout stays ``None`` — the identity —
        so every pre-layout golden timeline is preserved bit-for-bit.
        """
        if self._heat is not None:
            self.layout = FrequencyLayout.from_heat(
                self._heat, self.spec.rows, self.rows_per_page
            )

    @property
    def attached(self) -> bool:
        return self.device is not None

    @property
    def page_bytes(self) -> int:
        if self._page_bytes is None:
            raise RuntimeError("table not attached to a device")
        return self._page_bytes

    @property
    def rows_per_page(self) -> int:
        return self.spec.rows_per_page(self.page_bytes)

    @property
    def lba_bytes(self) -> int:
        return self.device.ftl.config.lba_bytes

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def row_location(self, row: int) -> tuple[int, int]:
        """(page_index, slot) of a row under this table's layout."""
        rpp = self.rows_per_page
        rank = int(self.storage_ids(np.asarray([row]))[0])
        return rank // rpp, rank % rpp

    def lba_span_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Per-row ``(first_lba, nlb)`` covering each row's bytes."""
        return self.lba_span_of_storage(self.storage_ids(rows))

    def lba_span_of_storage(self, ranks: np.ndarray) -> np.ndarray:
        """Per-rank ``(first_lba, nlb)`` for already-translated storage
        ranks (backends translate once and reuse the ranks for span
        grouping *and* in-page slot extraction)."""
        ranks = np.asarray(ranks, dtype=np.int64)
        rpp = self.rows_per_page
        lba_bytes = self.lba_bytes
        row_bytes = self.spec.row_bytes
        byte_start = (
            self.base_lba * lba_bytes
            + ranks // rpp * self.page_bytes
            + ranks % rpp * row_bytes
        )
        first = byte_start // lba_bytes
        last = (byte_start + (row_bytes - 1)) // lba_bytes
        spans = np.empty((ranks.size, 2), dtype=np.int64)
        spans[:, 0] = first
        spans[:, 1] = last - first + 1
        return spans

    # ------------------------------------------------------------------
    # Data access (canonical values = quantization round trip)
    # ------------------------------------------------------------------
    def get_rows(self, ids: np.ndarray) -> np.ndarray:
        raw = self.data.get_rows(ids)
        quant = self.spec.quant
        if quant.dtype is EmbDtype.FP32:
            # The FP32 round trip is the identity, and ``raw`` is already
            # a fresh float32 array (the ``TableData.get_rows`` contract).
            return raw
        return decode_vectors(encode_vectors(raw, quant), quant)

    def rows_at(self, ranks: np.ndarray) -> np.ndarray:
        """Canonical vectors stored at storage ``ranks``: :meth:`get_rows`
        of the rows the layout puts there, for int64 ranks whose caller
        has proven every one in ``[0, rows)`` — nothing checks them again."""
        ids = ranks if self.layout is None else self.layout.external_ids(ranks)
        raw = self.data.take_rows(ids)
        quant = self.spec.quant
        if quant.dtype is EmbDtype.FP32:
            return raw
        return decode_vectors(encode_vectors(raw, quant), quant)

    def ref_sls(self, bags: BagsLike) -> np.ndarray:
        """In-DRAM reference SparseLengthsSum over per-result bags.

        One gather over the flat ids + one segment reduce at the bag
        offsets (the DRAM backend's hot path at serving scale).
        """
        bags = Bags.of(bags)
        if bags.ids.size == 0:
            return np.zeros((len(bags), self.spec.dim), dtype=np.float32)
        return segment_sum_offsets(self.get_rows(bags.ids), bags.offsets)

    # ------------------------------------------------------------------
    # NDP config construction
    # ------------------------------------------------------------------
    def make_sls_config(self, bags: BagsLike) -> SlsConfig:
        if not self.attached:
            raise RuntimeError("table must be attached before issuing SLS")
        bags = Bags.of(bags)
        # The device addresses storage ranks: with a layout the ids are
        # translated so the NDP engine's page math (rank //
        # rows_per_page) walks the heat-packed placement.  Pairs then
        # sort by rank — the page-ordered scan the weak SSD CPU needs.
        return SlsConfig(
            table_base_lba=self.base_lba,
            request_id=0,  # assigned by the driver session
            pairs=sorted_pairs(self.storage_ids(bags.ids), bags.rids),
            num_results=len(bags),
            vec_dim=self.spec.dim,
            quant=self.spec.quant,
            rows_per_page=self.rows_per_page,
            table_rows=self.spec.rows,
        )

    def __repr__(self) -> str:
        return (
            f"EmbeddingTable({self.spec.name}, rows={self.spec.rows}, "
            f"dim={self.spec.dim}, layout={self.spec.layout.value})"
        )
