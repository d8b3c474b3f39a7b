"""The parent commit's per-bag SLS plumbing, kept verbatim: bags as a
Python list of per-result arrays, flattened again in every layer
(``flatten_bags`` / ``build_pairs``: one ``np.asarray`` + ``np.full`` per
bag, then ``np.concatenate``), split back with ``np.split``
(``scatter_bags``), and a ``segment_sum`` that searches for the bag
boundaries its caller threw away.  :class:`repro.core.bags.Bags` and its
readers must give the same rows, result ids, sorted pairs, shard-local
bags and float32 sums on any input (``test_bags_reference.py``).

Copied from commit 4e82a1a3f0214b962397e7396a72849268a88a1d; do not edit
to follow ``src/``.  The two ``EmbeddingTable`` methods are module
functions here, ``self`` being the table; their function-level imports of
``segment_sum`` / ``flatten_bags`` are dropped, so they call the copies
in this file.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.config import SlsConfig
from repro.core.vecops import group_slices

__all__ = [
    "flatten_bags",
    "build_pairs",
    "segment_sum",
    "scatter_bags",
    "ref_sls",
    "make_sls_config",
]


def flatten_bags(bags: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Return (rows, result_ids) flattened from per-result bags."""
    rows: List[np.ndarray] = []
    rids: List[np.ndarray] = []
    for i, bag in enumerate(bags):
        bag = np.asarray(bag, dtype=np.int64).reshape(-1)
        rows.append(bag)
        rids.append(np.full(bag.size, i, dtype=np.int64))
    if not rows:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    return np.concatenate(rows), np.concatenate(rids)


def build_pairs(bags: list[np.ndarray]) -> np.ndarray:
    """Build a sorted (input_id, result_id) pair array from per-result bags.

    ``bags[r]`` holds the input ids accumulated into result ``r`` — one bag
    per (sample, table) lookup set, exactly the SparseLengthsSum layout.
    """
    ids = []
    results = []
    for result_id, bag in enumerate(bags):
        bag = np.asarray(bag, dtype=np.int64).reshape(-1)
        ids.append(bag)
        results.append(np.full(bag.size, result_id, dtype=np.int64))
    if not ids:
        return np.zeros((0, 2), dtype=np.int64)
    pairs = np.stack([np.concatenate(ids), np.concatenate(results)], axis=1)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


def segment_sum(vectors: np.ndarray, ids: np.ndarray, n_out: int) -> np.ndarray:
    """Sum ``vectors`` rows into ``n_out`` buckets keyed by sorted ``ids``.

    ``ids`` must be ascending (duplicates allowed).  Empty buckets stay
    zero.  Equivalent to ``np.add.at(out, ids, vectors)`` but runs as one
    ``np.add.reduceat`` pass.
    """
    out = np.zeros((n_out, vectors.shape[1]), dtype=vectors.dtype)
    if ids.size == 0:
        return out
    starts = np.searchsorted(ids, np.arange(n_out, dtype=ids.dtype))
    counts = np.diff(np.append(starts, ids.size))
    nonempty = counts > 0
    if nonempty.any():
        out[nonempty] = np.add.reduceat(vectors, starts[nonempty], axis=0)
    return out


def scatter_bags(bags: Sequence[np.ndarray], mapping) -> Dict[int, List[np.ndarray]]:
    """Split per-result bags into shard-local per-result bags.

    ``mapping`` answers ``shard_of(ids)`` and ``local_ids(ids)`` (a
    :class:`~repro.serving.sharding.ModuloRowMapping`).  Returns only the
    shards that received at least one lookup; each shard's value is
    ``len(bags)`` bags of *shard-local* ids (possibly empty bags), in the
    same order, so a shard's partial SLS lines up row-for-row with the
    merged result.  One vectorized pass: flatten, group by owning shard
    (:func:`~repro.core.vecops.group_slices` — stable, so within a shard
    the bag order and intra-bag id order are preserved), remap to local
    ids, split back into bags.
    """
    rows, rids = flatten_bags(bags)
    if rows.size == 0:
        return {}
    shard_keys = mapping.shard_of(rows)
    local = mapping.local_ids(rows)
    uniq, order, bounds = group_slices(shard_keys)
    out: Dict[int, List[np.ndarray]] = {}
    for i, shard in enumerate(uniq):
        members = order[bounds[i] : bounds[i + 1]]  # ascending positions
        counts = np.bincount(rids[members], minlength=len(bags))
        out[int(shard)] = np.split(local[members], np.cumsum(counts)[:-1])
    return out


def ref_sls(self, bags: Sequence[np.ndarray]) -> np.ndarray:
    """In-DRAM reference SparseLengthsSum over per-result bags.

    One gather + segment reduce over the flattened bags (the DRAM
    backend's hot path at serving scale).
    """
    rows, rids = flatten_bags(bags)
    if rows.size == 0:
        return np.zeros((len(bags), self.spec.dim), dtype=np.float32)
    return segment_sum(self.get_rows(rows), rids, len(bags))


def make_sls_config(self, bags: Sequence[np.ndarray]) -> SlsConfig:
    if not self.attached:
        raise RuntimeError("table must be attached before issuing SLS")
    if self.layout is None:
        bags = [np.asarray(b) for b in bags]
    else:
        # The device addresses storage ranks: translate each bag so
        # the NDP engine's page math (rank // rows_per_page) walks
        # the heat-packed placement.  Pairs then sort by rank — the
        # page-ordered scan the weak SSD CPU needs.
        bags = [
            self.storage_ids(np.asarray(b, dtype=np.int64).reshape(-1))
            for b in bags
        ]
    pairs = build_pairs(bags)
    return SlsConfig(
        table_base_lba=self.base_lba,
        request_id=0,  # assigned by the driver session
        pairs=pairs,
        num_results=len(bags),
        vec_dim=self.spec.dim,
        quant=self.spec.quant,
        rows_per_page=self.rows_per_page,
        table_rows=self.spec.rows,
    )
