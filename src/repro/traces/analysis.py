"""Trace analytics: row-to-page mapping, LRU page-cache sweeps, arrival shape."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..embedding.caches import SetAssociativeLru
from ..embedding.placement import row_frequencies

__all__ = [
    "rows_to_pages",
    "row_frequencies",
    "lru_page_hit_rate",
    "interarrival_stats",
]


def rows_to_pages(trace: np.ndarray, row_bytes: int, page_bytes: int) -> np.ndarray:
    """Map a row-id trace to page ids at a given page granularity."""
    if page_bytes < row_bytes:
        raise ValueError("page must be at least one row")
    rows_per_page = page_bytes // row_bytes
    return np.asarray(trace, dtype=np.int64) // rows_per_page


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
