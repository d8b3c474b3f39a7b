"""Heat-driven row placement: profiling, tracking, and online migration.

The pieces that turn :class:`~repro.ftl.layout.FrequencyLayout` from a
static load-time packing into a live policy:

* :func:`heat_from_rows` / :func:`profile_heat` — build the per-table
  frequency histogram that seeds the layout (PAPER.md Fig. 4 locality is
  exactly what these capture);
* :class:`HeatTracker` — a decayed online counter fed from the backend
  request path, so the "current" heatmap drifts with popularity;
* :class:`LayoutMigrator` — the GC piggyback.  Every reclaimed victim
  block already paid flash reads + programs to relocate its live pages;
  the migrator rides along and re-packs the *rows* stored in those pages
  against the tracker's current heat, bounded by a per-cycle row budget.
  Because table pages are lazy (:class:`~repro.embedding.table.
  TablePageContent` resolves slots through the layout at read time), the
  re-pack moves zero additional bytes — it only re-points the row
  bijection and invalidates the device vector cache for the ranks whose
  occupant changed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..params import Count, Fraction, PosCount, checked
from .table import EmbeddingTable

__all__ = [
    "HeatTracker",
    "LayoutMigrator",
    "heat_from_rows",
    "profile_heat",
    "row_frequencies",
]


def row_frequencies(trace: np.ndarray, num_rows: int) -> np.ndarray:
    """Per-row access counts over ``[0, num_rows)`` — the heat histogram
    frequency-based layout packs by."""
    trace = np.asarray(trace, dtype=np.int64).reshape(-1)
    if trace.size and (trace.min() < 0 or trace.max() >= num_rows):
        raise ValueError("row id out of range for frequency histogram")
    return np.bincount(trace, minlength=num_rows).astype(np.float64)


heat_from_rows = row_frequencies


def profile_heat(
    sampler,
    num_rows: int,
    batches: int,
    batch_size: int = 64,
) -> np.ndarray:
    """Histogram ``batches`` draws from an index ``sampler``.

    ``sampler`` is any callable returning an int64 id array per call
    (``repro.workload``'s ``IndexSampler.sample`` bound with a size, or a
    bag generator adapter).  Deterministic given a seeded sampler.
    """
    heat = np.zeros(num_rows, dtype=np.float64)
    for _ in range(max(0, batches)):
        drawn = np.asarray(sampler(batch_size), dtype=np.int64).reshape(-1)
        heat += heat_from_rows(drawn, num_rows)
    return heat


class HeatTracker:
    """Decayed per-row access counter (deterministic, simulation-safe).

    ``record`` is called from the backend request funnel with the flat
    row ids of each op.  Every ``decay_every`` recorded rows the whole
    histogram is scaled by ``decay`` so old popularity fades and a
    mid-scenario shift becomes visible to the migrator within a bounded
    number of requests (no wall-clock involved — decay ticks on traffic,
    which keeps replays reproducible).
    """

    @checked
    def __init__(
        self,
        num_rows: PosCount,
        decay: Fraction = 0.5,
        decay_every: PosCount = 50_000,
        initial: Optional[np.ndarray] = None,
    ):
        self.num_rows = num_rows
        self.decay = decay
        self.decay_every = decay_every
        self.heat = np.zeros(num_rows, dtype=np.float64)
        if initial is not None:
            initial = np.asarray(initial, dtype=np.float64)
            if initial.shape != (num_rows,):
                raise ValueError("initial heat shape mismatch")
            self.heat += initial
        self.rows_recorded = 0
        self._since_decay = 0

    def record(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        if rows.size == 0:
            return
        np.add.at(self.heat, rows, 1.0)
        self.rows_recorded += int(rows.size)
        self._since_decay += int(rows.size)
        if self._since_decay >= self.decay_every:
            self.heat *= self.decay
            self._since_decay = 0


class _TableEntry:
    """Per-table state the migrator needs to map LPNs back to ranks."""

    def __init__(self, table: EmbeddingTable, tracker: HeatTracker):
        if not table.attached:
            raise RuntimeError("register tables after attach")
        self.table = table
        self.tracker = tracker
        device = table.device
        self.base_lpn = table.base_lba // device.ftl.lbas_per_page
        self.num_pages = table.spec.table_pages(table.page_bytes)


class LayoutMigrator:
    """GC-piggybacked re-packer; install as ``ftl.layout_migrator``.

    ``on_block_reclaimed(lpns)`` receives the valid LPNs of every victim
    block GC reclaims.  LPNs belonging to a registered table with a
    :class:`FrequencyLayout` select that table's page ranks; the ranks
    are re-sorted by the tracker's current heat (victim-local: rows only
    trade places within the reclaimed pages, so no page outside the set
    GC already rewrote changes content).  At most ``budget_rows`` rows
    are considered per GC cycle; the device-side vector cache is
    invalidated for exactly the ranks whose occupant changed.
    """

    @checked
    def __init__(self, budget_rows: Count = 256):
        self.budget_rows = budget_rows
        self.entries: List[_TableEntry] = []
        self.repacks = 0
        self.rows_repacked = 0
        self.rows_skipped_budget = 0
        self.cache_invalidations = 0

    def register(self, table: EmbeddingTable, tracker: HeatTracker) -> None:
        if tracker.num_rows != table.spec.rows:
            raise ValueError("tracker size does not match table rows")
        self.entries.append(_TableEntry(table, tracker))

    # -- GC hook --------------------------------------------------------
    def on_block_reclaimed(self, lpns: Sequence[int]) -> None:
        if not lpns or self.budget_rows == 0:
            return
        lpn_arr = np.asarray(list(lpns), dtype=np.int64)
        for entry in self.entries:
            layout = entry.table.layout
            if layout is None:
                continue
            in_table = (lpn_arr >= entry.base_lpn) & (
                lpn_arr < entry.base_lpn + entry.num_pages
            )
            if not np.any(in_table):
                continue
            pages = np.unique(lpn_arr[in_table] - entry.base_lpn)
            rpp = entry.table.rows_per_page
            ranks = (pages[:, None] * rpp + np.arange(rpp)[None, :]).reshape(-1)
            ranks = ranks[ranks < entry.table.spec.rows]
            if ranks.size > self.budget_rows:
                # Bound work per GC cycle: re-pack whole pages up to the
                # budget, skip the rest (the next cycle that reclaims
                # them catches up).
                keep_pages = max(1, self.budget_rows // rpp)
                self.rows_skipped_budget += int(
                    ranks.size - min(ranks.size, keep_pages * rpp)
                )
                ranks = ranks[: keep_pages * rpp]
            # Pages the NDP engine translated before this instant hold
            # the rows they had then: read them before re-pointing ranks.
            entry.table.device.ndp.flush_gathers()
            moved = layout.repack_ranks(ranks, entry.tracker.heat)
            if moved.size:
                self.repacks += 1
                self.rows_repacked += int(moved.size)
                self._invalidate(entry, moved)

    def _invalidate(self, entry: _TableEntry, moved_ranks: np.ndarray) -> None:
        """Drop re-pointed ranks from the device's materialized vector cache.

        Host-side caches key by *external* id with unchanged values, so
        only the device cache (keyed by internal rank) can go stale.
        """
        device = entry.table.device
        ndp = getattr(device, "ndp", None)
        emb_cache = getattr(ndp, "emb_cache", None)
        if emb_cache is None:
            return
        self.cache_invalidations += int(
            emb_cache.invalidate_many(entry.base_lpn, moved_ranks)
        )
