"""Row -> flash-page layout policies.

A layout is a bijection between a table's *external* row ids (what the
model looks up) and *internal* storage ranks (the order rows are packed
into flash pages: rank ``r`` lives in page ``r // rows_per_page``, slot
``r % rows_per_page``).  The legacy placement is the identity: row
``i`` sits at rank ``i``, the implicit row-major layout every
pre-layout version of this codebase used, and a table without a layout
(``EmbeddingTable.layout is None``) keeps it.

:class:`FrequencyLayout` is RecSSD's answer to the under-utilized-read
problem (PAPER.md Section 4 / Fig. 4): each flash page read returns
``rows_per_page`` vectors but a query typically wants one of them, so
co-locating *hot* rows into shared pages raises the useful fraction of
every page read.  Ranks are assigned by descending measured heat (stable
on ties), so the hottest ``rows_per_page`` rows share page 0, the next
hottest share page 1, and so on — frequency-aware placement in the
spirit of RecFlash (PAPERS.md).

The permutation is *logical*: flash pages of an attached table read
through lazy :class:`~repro.embedding.table.TablePageContent` objects
that consult the layout at extraction time, so re-packing ranks (online
migration piggybacked on GC, :mod:`repro.embedding.placement`) never
copies row bytes — it only changes which external id a (page, slot)
resolves to, exactly like an FTL remap at row granularity.

Invariants (pinned by ``tests/ftl/test_layout.py``):

* ``storage_ids`` is a permutation of ``[0, rows)`` and
  ``external_ids`` is its exact inverse (round trip is the identity);
* uniform (or all-zero) heat reproduces the identity bit-identically,
  so enabling the machinery with no profile is a no-op.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..params import PosCount, checked

__all__ = ["FrequencyLayout"]


class FrequencyLayout:
    """Heat-ordered packing with in-place re-pack support.

    ``_ext_of[rank]`` holds the external id stored at ``rank``;
    ``_rank_of`` is the inverse.  ``version`` increments on every
    mutation so consumers holding derived state (none inside the
    simulator — caches are invalidated eagerly) can detect staleness.
    """

    @checked
    def __init__(self, ext_of: np.ndarray, rows_per_page: PosCount):
        ext_of = np.asarray(ext_of, dtype=np.int64)
        if ext_of.size < 1:
            raise ValueError("rows must be >= 1")
        self.rows = int(ext_of.size)
        self.rows_per_page = rows_per_page
        self._ext_of = ext_of.copy()
        self._rank_of = np.empty(self.rows, dtype=np.int64)
        self._rank_of[self._ext_of] = np.arange(self.rows, dtype=np.int64)
        self.version = 0
        self.rows_migrated = 0

    @classmethod
    def from_heat(
        cls,
        heat: Optional[np.ndarray],
        rows: int,
        rows_per_page: int,
    ) -> "FrequencyLayout":
        """Pack rows by descending heat (stable: ties keep id order).

        ``None`` or uniform heat therefore yields the identity
        permutation — the zero-heat oracle the tests pin.
        """
        if heat is None:
            ext_of = np.arange(rows, dtype=np.int64)
        else:
            heat = np.asarray(heat, dtype=np.float64)
            if heat.size != rows:
                raise ValueError(
                    f"heat has {heat.size} entries for a {rows}-row table"
                )
            ext_of = np.argsort(-heat, kind="stable").astype(np.int64)
        return cls(ext_of, rows_per_page)

    # -- bijection ------------------------------------------------------
    def storage_ids(self, ids: np.ndarray) -> np.ndarray:
        """Internal rank of each external row id."""
        return self._rank_of[np.asarray(ids, dtype=np.int64)]

    def external_ids(self, ranks: np.ndarray) -> np.ndarray:
        """External row id stored at each internal rank."""
        return self._ext_of[np.asarray(ranks, dtype=np.int64)]

    # -- online migration ----------------------------------------------
    def repack_ranks(self, ranks: np.ndarray, heat: np.ndarray) -> np.ndarray:
        """Re-sort the rows currently stored at ``ranks`` by ``heat``.

        The external ids occupying ``ranks`` are reassigned among those
        same ranks so that hotter rows take lower ranks (stable on ties,
        then ascending external id for determinism): within a GC
        victim's page set this clusters the currently-hot rows into the
        lowest-numbered pages of the set.  Only positions whose assigned
        id actually changes are touched.  Returns the internal ranks
        whose occupant changed (the set a device-side vector cache must
        invalidate).
        """
        ranks = np.unique(np.asarray(ranks, dtype=np.int64))
        if ranks.size < 2:
            return np.zeros(0, dtype=np.int64)
        occupants = self._ext_of[ranks]
        keys = np.asarray(heat, dtype=np.float64)[occupants]
        # Descending heat; ties resolve by ascending external id so the
        # result is independent of the incoming occupant order.
        order = np.lexsort((occupants, -keys))
        new_occupants = occupants[order]
        changed = new_occupants != occupants
        if not np.any(changed):
            return np.zeros(0, dtype=np.int64)
        moved_ranks = ranks[changed]
        self._ext_of[moved_ranks] = new_occupants[changed]
        self._rank_of[new_occupants[changed]] = moved_ranks
        self.version += 1
        self.rows_migrated += int(np.count_nonzero(changed))
        return moved_ranks

    def check_permutation(self) -> None:
        """Validate the bijection (test hook)."""
        if not np.array_equal(
            np.sort(self._ext_of), np.arange(self.rows, dtype=np.int64)
        ):
            raise AssertionError("ext_of is not a permutation")
        if not np.array_equal(
            self._rank_of[self._ext_of], np.arange(self.rows, dtype=np.int64)
        ):
            raise AssertionError("rank_of is not the inverse of ext_of")
