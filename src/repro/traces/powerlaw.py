"""Power-law (Zipf) popularity traces.

The paper's production characterization (Figs 3-4) shows embedding-table
accesses following a power law, with per-table skews that vary widely.
Those figures use proprietary traces; we regenerate their *shape* from
Zipf-distributed synthetic traces with per-table exponents.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..params import Count, Pos, PosCount, checked

__all__ = ["ZipfTraceGenerator"]


class ZipfTraceGenerator:
    """Samples row ids with popularity rank ``r`` proportional to r^-alpha."""

    @checked
    def __init__(self, table_rows: PosCount, alpha: Pos, seed: Count = 0):
        self.table_rows = table_rows
        self.alpha = alpha
        self._rng = np.random.default_rng(seed)
        ranks = np.arange(1, table_rows + 1, dtype=np.float64)
        weights = ranks ** (-alpha)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        # Permute ranks onto rows so popular rows are scattered over pages.
        self._perm = np.random.default_rng(seed ^ 0xABCD).permutation(table_rows)

    def generate(self, n_lookups: int) -> np.ndarray:
        u = self._rng.random(n_lookups)
        ranks = np.searchsorted(self._cdf, u, side="left")
        # Ranks are int64 and non-negative already; the bound keeps the
        # gather in range whatever the cdf's last entry rounded to.
        np.minimum(ranks, self.table_rows - 1, out=ranks)
        return self._perm[ranks]

    def generate_bags(self, n_samples: int, lookups_per_sample: int) -> List[np.ndarray]:
        flat = self.generate(n_samples * lookups_per_sample)
        return [
            flat[i * lookups_per_sample : (i + 1) * lookups_per_sample]
            for i in range(n_samples)
        ]
