"""Vectorized accumulation primitives shared by the SLS hot paths.

``np.add.at`` is the semantically-correct scatter-accumulate for
duplicate indices, but it is an order of magnitude slower than a
segment-reduce when the indices are (or can cheaply be made) sorted.
The SLS backends almost always hold bag-sorted result ids, so the hot
paths use :func:`segment_sum` / :func:`scatter_add_vectors` and keep
``np.add.at`` only for the small unsorted scatters where sorting first
is not a measured win.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "segment_sum",
    "segment_sum_offsets",
    "scatter_add_vectors",
    "scatter_add_segments",
    "group_slices",
]

# Below this many rows a raw np.add.at beats argsort + reduceat (the
# crossover measured on the hot-path microbenchmark is ~100-200 rows).
_SORT_THRESHOLD = 128


def segment_sum(vectors: np.ndarray, ids: np.ndarray, n_out: int) -> np.ndarray:
    """Sum ``vectors`` rows into ``n_out`` buckets keyed by sorted ``ids``.

    ``ids`` must be ascending (duplicates allowed) and below ``n_out``.
    Empty buckets stay zero.  Equivalent to ``np.add.at(out, ids,
    vectors)`` but runs as one ``np.add.reduceat`` pass.  A caller that
    holds the bucket boundaries already (:class:`~repro.core.bags.Bags`)
    passes them to :func:`segment_sum_offsets` instead of having them
    searched for.
    """
    return segment_sum_offsets(
        vectors, ids.searchsorted(np.arange(n_out + 1, dtype=ids.dtype))
    )


def segment_sum_offsets(vectors: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum ``vectors[offsets[i]:offsets[i + 1]]`` into row ``i``.

    ``offsets`` ascends from 0 to ``len(vectors)``; an empty segment's
    row stays zero.  The reduce starts where :func:`segment_sum` would
    have found them, so both forms give the same float32 sums bit for bit.
    """
    starts = offsets[:-1]
    nonempty = offsets[1:] > starts
    if starts.size and np.logical_and.reduce(nonempty):
        return np.add.reduceat(vectors, starts, axis=0)
    out = np.zeros((starts.size, vectors.shape[1]), dtype=vectors.dtype)
    if np.logical_or.reduce(nonempty):
        out[nonempty] = np.add.reduceat(vectors, starts[nonempty], axis=0)
    return out


def scatter_add_vectors(out: np.ndarray, ids: np.ndarray, vectors: np.ndarray) -> None:
    """``out[ids] += vectors`` with duplicate-id semantics, fast for big batches.

    Small or already-unsorted-and-small batches use ``np.add.at``; large
    ones sort once and segment-reduce.
    """
    if ids.size == 0:
        return
    if ids.size < _SORT_THRESHOLD:
        np.add.at(out, ids, vectors)
        return
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    uniq, starts = np.unique(sorted_ids, return_index=True)
    sums = np.add.reduceat(vectors[order], starts, axis=0)
    out[uniq] += sums


def scatter_add_segments(
    out: np.ndarray, ids: np.ndarray, vectors: np.ndarray, sizes: Sequence[int]
) -> None:
    """:func:`scatter_add_vectors` once per consecutive segment of
    ``sizes`` rows, bit for bit, in as few numpy calls as that allows.

    ``np.add.at`` applies its rows one at a time in order, so segments
    that would each take it are one call over their concatenation.  A
    segment at the sort threshold sums itself *before* it is added to
    ``out`` — another float32 grouping — so then every segment keeps its
    own call.
    """
    if max(sizes) < _SORT_THRESHOLD:
        np.add.at(out, ids, vectors)
        return
    lo = 0
    for n in sizes:
        scatter_add_vectors(out, ids[lo : lo + n], vectors[lo : lo + n])
        lo += n


def group_slices(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group positions of integer ``keys`` by value.

    Returns ``(uniq, order, bounds)`` where ``order`` permutes positions
    so equal keys are contiguous (stable: original order within a group)
    and group ``i`` occupies ``order[bounds[i]:bounds[i+1]]`` with key
    ``uniq[i]`` (ascending, in ``keys``' dtype).  This is the vectorized
    replacement for the ``dict.setdefault(key, []).append(i)`` grouping
    loops: one stable sort, and a group starts wherever the sorted keys
    change.
    """
    keys = np.asarray(keys)
    order = keys.argsort(kind="stable")
    ranked = keys[order]
    n = ranked.size
    starts = np.empty(n + 1, dtype=bool)
    starts[0] = starts[n] = True
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:n])
    bounds = starts.nonzero()[0]
    return ranked[bounds[:-1]], order, bounds
