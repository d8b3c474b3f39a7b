"""Figure 3: embedding-table reuse follows a power law.

The paper's data is proprietary; we regenerate the curve's shape from a
Zipf trace (DESIGN.md documents the substitution).  For each page
granularity (256B / 1KB / 4KB) we report how many of the hottest pages
cover 30% / 50% / 80% of all accesses — the claim being that a few
hundred pages capture ~30% of reuse and a few thousand extend past 50%.
"""

from __future__ import annotations

import numpy as np

from ..traces.analysis import rows_to_pages
from ..traces.powerlaw import ZipfTraceGenerator
from .common import ExperimentResult

__all__ = ["run"]

PAGE_SIZES = (256, 1024, 4096)


def hottest_pages_for_share(page_trace: np.ndarray, share: float) -> int:
    """Number of hottest pages covering ``share`` of accesses."""
    _ids, counts = np.unique(page_trace, return_counts=True)
    counts = np.sort(counts)[::-1]
    cum = np.cumsum(counts)
    target = share * cum[-1]
    return int(np.searchsorted(cum, target) + 1)


def run(
    fast: bool = True,
    seed: int = 0,
    table_rows: int = 1 << 20,
    row_bytes: int = 64,
    alpha: float = 1.05,
) -> ExperimentResult:
    n_accesses = 100_000 if fast else 400_000
    gen = ZipfTraceGenerator(table_rows, alpha=alpha, seed=seed)
    trace = gen.generate(n_accesses)
    rows = []
    for page_bytes in PAGE_SIZES:
        pages = rows_to_pages(trace, row_bytes, page_bytes)
        distinct = int(np.unique(pages).size)
        rows.append(
            {
                "page_size": page_bytes,
                "accesses": n_accesses,
                "distinct_pages": distinct,
                "pages_for_30pct": hottest_pages_for_share(pages, 0.30),
                "pages_for_50pct": hottest_pages_for_share(pages, 0.50),
                "pages_for_80pct": hottest_pages_for_share(pages, 0.80),
            }
        )
    return ExperimentResult(
        experiment="fig3",
        title="Reuse distribution vs page granularity (power-law accesses)",
        rows=rows,
        notes=[
            "paper's Figs 3-4 use proprietary traces; shape regenerated from "
            f"a Zipf(alpha={alpha}) synthetic trace"
        ],
    )
