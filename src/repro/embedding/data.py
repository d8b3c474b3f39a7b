"""Embedding table data sources.

``DenseTableData`` holds an explicit float32 array (small tables, tests).
``VirtualTableData`` generates deterministic per-row vectors on demand
from a seeded pool, so the 16GB logical footprint of a million-row
one-vector-per-page table costs a few MB of host RAM.  Both produce
identical values every time for a given (seed, row), which is what lets
every backend's result be checked against the in-DRAM reference.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..params import Count, PosCount, checked

__all__ = [
    "TableData",
    "DenseTableData",
    "VirtualTableData",
    "MappedTableData",
    "UpdatableTableData",
]

_STAMP_PRIME = 1_000_003
_HASH_MULT = 2_654_435_761


class TableData(ABC):
    """Source of raw (pre-quantization) float32 row vectors."""

    rows: int
    dim: int
    # Update batches committed into these rows so far: whoever keeps
    # vectors it read earlier compares this to know they may be stale.
    commits = 0

    def get_rows(self, ids: np.ndarray) -> np.ndarray:
        """Return a fresh float32 ``[len(ids), dim]`` array the caller may
        keep and write into; ids must be integers in range (checked)."""
        return self.take_rows(self._check_ids(ids))

    @abstractmethod
    def take_rows(self, ids: np.ndarray) -> np.ndarray:
        """:meth:`get_rows` of int64 ``ids`` whose caller has proven every
        one in range: nothing checks them again."""

    def _check_ids(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.dtype != np.int64:
            # A cast would serve 1.9 as row 1, True as row 1 and NaN as
            # an int64 minimum; an empty array passes, as in ``as_ids``.
            if ids.size and ids.dtype.kind not in "iu":
                raise TypeError(f"row ids must be integers, got dtype {ids.dtype}")
            ids = ids.astype(np.int64)
        # One reduction: a negative id read as uint64 is >= 2**63.
        if ids.size and np.maximum.reduce(ids.view(np.uint64)) >= self.rows:
            raise IndexError(
                f"row id out of range [0, {self.rows}) "
                f"(got min={ids.min()}, max={ids.max()})"
            )
        return ids


class DenseTableData(TableData):
    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=np.float32)
        if values.ndim != 2:
            raise ValueError("values must be 2-D [rows, dim]")
        self.values = values
        self.rows, self.dim = values.shape

    @classmethod
    def random(cls, rows: int, dim: int, seed: int = 0) -> "DenseTableData":
        rng = np.random.default_rng(seed)
        return cls(rng.standard_normal((rows, dim)).astype(np.float32) * 0.1)

    def take_rows(self, ids: np.ndarray) -> np.ndarray:
        return self.values[ids]  # fancy index: already a copy


class VirtualTableData(TableData):
    """Deterministic synthetic rows: pooled base vectors plus a row stamp.

    ``row r`` is ``pool[r % pool_rows]`` with element 0 replaced by a
    row-unique hash value, so distinct rows are distinguishable (sum
    mismatches are detectable) while generation stays vectorized.
    """

    @checked
    def __init__(self, rows: PosCount, dim: PosCount, seed: Count = 0, pool_rows: PosCount = 4096):
        self.rows = rows
        self.dim = dim
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._pool = rng.standard_normal((min(pool_rows, rows), dim)).astype(np.float32) * 0.1

    def take_rows(self, ids: np.ndarray) -> np.ndarray:
        # The ids are proven in [0, rows), so wrapping is ``ids % pool_rows``
        # without the temporary; a take is already a copy.
        out = self._pool.take(ids, axis=0, mode="wrap")
        # ((ids * mult + seed) % prime) / prime - 0.5: the integer steps in
        # place on one temporary, the division straight to float32 (the
        # cast of a value below 2**24 is exact) and the subtraction into
        # the stamp column.
        hashed = ids * _HASH_MULT
        if self.seed:
            hashed += self.seed
        hashed %= _STAMP_PRIME
        np.subtract(np.true_divide(hashed, _STAMP_PRIME, dtype=np.float32), 0.5, out=out[:, 0])
        return out


class UpdatableTableData(TableData):
    """A committed-state overlay making any base table data writable.

    Live embedding updates commit here at their simulated apply instant:
    ``apply`` records the new raw (pre-quantization) row vectors and
    every subsequent ``get_rows`` — from the host reference, the virtual
    page contents on flash, the device page cache and the NDP translate
    path, all of which read through the table's data object — returns
    the updated values.  Device page writes then proceed asynchronously
    purely for timing/aging; coherence never depends on them.

    Replicas share the wrapped object and row shards read through it
    via :class:`MappedTableData`, so one ``apply`` on the primary is
    visible everywhere.  A batch is last-write-wins.
    """

    def __init__(self, base: TableData):
        self.base = base
        self.rows = base.rows
        self.dim = base.dim
        # Sorted overlay: _ids ascending, _vals the committed vectors.
        self._ids = np.empty(0, dtype=np.int64)
        self._vals = np.empty((0, self.dim), dtype=np.float32)
        self.updates_applied = 0
        self.rows_written = 0

    @property
    def commits(self) -> int:
        return self.updates_applied

    @property
    def overlay_rows(self) -> int:
        """Distinct rows currently overridden by updates."""
        return int(self._ids.size)

    def written_ids(self) -> np.ndarray:
        """Ascending global ids of every row ever updated."""
        return self._ids.copy()

    def apply(self, ids: np.ndarray, values: np.ndarray) -> int:
        """Commit one update batch (last write wins); returns distinct rows."""
        ids = self._check_ids(ids)
        values = np.asarray(values, dtype=np.float32)
        if values.shape != (ids.size, self.dim):
            raise ValueError(
                f"values must be [{ids.size}, {self.dim}], got {values.shape}"
            )
        if ids.size == 0:
            return 0
        self.updates_applied += 1
        # Last-write-wins dedupe: the first occurrence in the reversed
        # batch is the last write in batch order.
        uids, rev_first = np.unique(ids[::-1], return_index=True)
        take = ids.size - 1 - rev_first
        uvals = values[take]
        pos = np.searchsorted(self._ids, uids)
        if self._ids.size:
            clipped = np.minimum(pos, self._ids.size - 1)
            present = self._ids[clipped] == uids
        else:
            present = np.zeros(uids.size, dtype=bool)
        if present.any():
            self._vals[pos[present]] = uvals[present]
        new = ~present
        if new.any():
            self._ids = np.insert(self._ids, pos[new], uids[new])
            self._vals = np.insert(self._vals, pos[new], uvals[new], axis=0)
        self.rows_written += int(uids.size)
        return int(uids.size)

    def take_rows(self, ids: np.ndarray) -> np.ndarray:
        out = self.base.take_rows(ids)
        if self._ids.size and ids.size:
            pos = np.searchsorted(self._ids, ids)
            clipped = np.minimum(pos, self._ids.size - 1)
            hit = self._ids[clipped] == ids
            if hit.any():
                out[hit] = self._vals[pos[hit]]
        return out


class MappedTableData(TableData):
    """A shard-local view of a parent table: local id ``l`` is parent row
    ``global_ids[l]``.

    This is the data half of the shard-local id remapping invariant (see
    ``docs/ARCHITECTURE.md``): a row shard stores the same raw vectors as
    the parent table, just re-indexed, so any backend serving the shard
    produces bit-identical per-row values to the parent serving the
    corresponding global ids.
    """

    def __init__(self, parent: TableData, global_ids: np.ndarray):
        global_ids = np.asarray(global_ids, dtype=np.int64)
        if global_ids.ndim != 1 or global_ids.size < 1:
            raise ValueError("global_ids must be a non-empty 1-D array")
        if global_ids.min() < 0 or global_ids.max() >= parent.rows:
            raise ValueError("global_ids out of parent range")
        self.parent = parent
        self.global_ids = global_ids
        self.rows = int(global_ids.size)
        self.dim = parent.dim

    @property
    def commits(self) -> int:
        return self.parent.commits

    def take_rows(self, ids: np.ndarray) -> np.ndarray:
        # Every global id was checked against the parent at construction.
        return self.parent.take_rows(self.global_ids[ids])
