"""Trace analytics: reuse distributions, stack distances, cache sweeps."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..embedding.caches import SetAssociativeLru
from ..embedding.placement import row_frequencies

__all__ = [
    "unique_fraction",
    "rows_to_pages",
    "row_frequencies",
    "reuse_cdf",
    "lru_page_hit_rate",
    "stack_distances",
    "interarrival_stats",
]


def unique_fraction(trace: np.ndarray) -> float:
    trace = np.asarray(trace)
    if trace.size == 0:
        return 0.0
    return float(np.unique(trace).size) / trace.size


def rows_to_pages(trace: np.ndarray, row_bytes: int, page_bytes: int) -> np.ndarray:
    """Map a row-id trace to page ids at a given page granularity."""
    if page_bytes < row_bytes:
        raise ValueError("page must be at least one row")
    rows_per_page = page_bytes // row_bytes
    return np.asarray(trace, dtype=np.int64) // rows_per_page


def reuse_cdf(page_trace: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Figure 3's curve: cumulative hit share vs pages (ascending hit count).

    Returns ``(pages_fraction, cumulative_hits_fraction)`` where index i
    covers the i+1 least-hit pages.  Edge cases are exact, not
    accidental: an empty trace yields two empty arrays (no 0/0), and a
    single-element trace yields ``([1.0], [1.0])`` — one page carrying
    all hits.
    """
    page_trace = np.asarray(page_trace, dtype=np.int64)
    if page_trace.size == 0:
        return np.zeros(0), np.zeros(0)
    _ids, counts = np.unique(page_trace, return_counts=True)
    counts = np.sort(counts)
    cum = np.cumsum(counts, dtype=np.float64)
    pages_fraction = np.arange(1, counts.size + 1, dtype=np.float64) / counts.size
    return pages_fraction, cum / cum[-1]


def lru_page_hit_rate(
    page_trace: np.ndarray, capacity_pages: int, ways: int = 16
) -> float:
    """Hit rate of a ``ways``-way LRU page cache over a page-id trace (Fig 4).

    Replays the trace on a real :class:`SetAssociativeLru` and reports
    the cache's own hit/miss counters, so this function agrees with the
    serving cache by construction for any (capacity, ways) — including
    capacities that are not a multiple of ``ways`` (the cache rounds its
    set count up rather than silently shrinking).
    """
    cache = SetAssociativeLru(capacity_pages, ways=ways)
    marker = np.zeros(0)  # cached payloads are irrelevant here
    trace = np.asarray(page_trace, dtype=np.int64)
    if trace.size == 0:
        return 0.0
    for page in trace:
        if cache.lookup(int(page)) is None:
            cache.insert(int(page), marker)
    assert cache.hits + cache.misses == trace.size
    return cache.hits / trace.size


def interarrival_stats(times: Sequence[float]) -> Dict[str, float]:
    """Arrival-process shape of a timestamp trace.

    Returns mean offered rate and the coefficient of variation of the
    inter-arrival gaps — the statistic that separates arrival models: a
    Poisson open loop has CV ~= 1, a deterministic (uniform) open loop
    CV = 0, and a closed-loop client population self-throttles to
    sub-exponential variability.  Used by the ``qos`` experiment to
    label the load it generated (:mod:`repro.workload`).
    """
    arr = np.asarray(times, dtype=np.float64)
    if arr.size < 2:
        return {"n": float(arr.size), "rate": 0.0, "cv": 0.0}
    gaps = np.diff(np.sort(arr))
    mean = float(gaps.mean())
    if mean <= 0:
        return {"n": float(arr.size), "rate": 0.0, "cv": 0.0}
    return {
        "n": float(arr.size),
        "rate": 1.0 / mean,
        "cv": float(gaps.std() / mean),
    }


def stack_distances(trace: Sequence[int]) -> List[int]:
    """LRU stack distance per access; -1 marks first touches.

    Empty traces yield ``[]`` and a single access yields ``[-1]`` — the
    first touch of its item, never an index into an empty stack.
    """
    stack: List[int] = []
    out: List[int] = []
    for item in trace:
        item = int(item)
        try:
            d = stack.index(item)
        except ValueError:
            out.append(-1)
            stack.insert(0, item)
            continue
        out.append(d)
        stack.pop(d)
        stack.insert(0, item)
    return out
