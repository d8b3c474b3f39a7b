"""Stack-distance locality trace generator (the DLRM generator analogue).

The paper instruments DLRM's synthetic trace generator with stack-distance
likelihoods: an exponential distribution parameterized by ``K`` decides
whether each lookup re-references a recently used embedding (short stack
distance) or touches a fresh row.  K = 0, 1, 2 produce traces with 13%,
54%, 72% unique accesses respectively (Section 5), which in turn yield
the 84%/44%/28% host-LRU hit rates quoted in Figure 10.

Fresh rows are drawn as a hashed sequence spread across the table (so
one-vector-per-page tables see distinct pages), making the "used ID
space" grow with trace length exactly as a production trace would.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..params import Count, NonNeg, Pos, PosCount, checked

__all__ = ["unique_fraction_for_k", "LocalityTraceGenerator"]

# q(K): probability a lookup is a *fresh* row.  Fit to the paper's
# 13%/54%/72% unique fractions at K = 0, 1, 2.
_Q_BASE = 0.87
_Q_RATE = 0.637

# Base spread multiplier (Knuth's golden-ratio constant).  It is odd, so it
# permutes any power-of-two row space; for other table sizes the generator
# nudges it until it is coprime with the size.  (A Mersenne-style constant
# like 2**31 - 1 would be hazardous: it is ≡ -1 mod 2**k, which turns the
# "hashed" enumeration into consecutive descending rows.)
_SPREAD_MULT = 2_654_435_761


@checked
def unique_fraction_for_k(k: NonNeg) -> float:
    """Target fraction of first-touch accesses for locality parameter K."""
    return 1.0 - _Q_BASE * math.exp(-_Q_RATE * k)


class LocalityTraceGenerator:
    """Generates per-table row-id streams with tunable temporal locality."""

    @checked
    def __init__(
        self,
        table_rows: PosCount,
        k: NonNeg,
        seed: Count = 0,
        stack_scale: Pos = 96.0,
        stack_window: PosCount = 4096,
        universe: Optional[PosCount] = None,
    ):
        """``universe`` bounds the pool fresh draws come from.

        ``None`` (default) makes every fresh draw a never-seen row (a hashed
        enumeration of the table), so the measured unique fraction matches
        the paper's 13%/54%/72% calibration exactly.  A bounded universe
        (e.g. 8192) models a production table whose active ID set is much
        smaller than the table — the regime where the paper's 2K-entry
        static partition asymptotically serves ~25% of accesses.
        """
        if universe is not None and universe > table_rows:
            raise ValueError("universe must be in [1, table_rows]")
        self.table_rows = table_rows
        self.k = k
        self.q_unique = unique_fraction_for_k(k)
        # Higher K -> repeats reach deeper into the stack (exponential scale).
        self.stack_scale = stack_scale * (1.0 + k)
        self.stack_window = stack_window
        self.universe = universe
        self._rng = np.random.default_rng(seed)
        self._stack: List[int] = []   # most recent first, bounded
        self._fresh_counter = 0
        offset_rng = np.random.default_rng(seed ^ 0x5EED)
        self._offset = int(offset_rng.integers(0, table_rows))
        self._spread = _SPREAD_MULT
        while math.gcd(self._spread, table_rows) != 1:
            self._spread += 2

    # ------------------------------------------------------------------
    def _fresh_row(self) -> int:
        if self.universe is None:
            index = self._fresh_counter
        else:
            index = int(self._rng.integers(0, self.universe))
        self._fresh_counter += 1
        row = (index * self._spread + self._offset) % self.table_rows
        return int(row)

    def next_row(self) -> int:
        stack = self._stack
        if stack and self._rng.random() >= self.q_unique:
            # Re-reference: exponential stack distance, clipped to the stack.
            d = int(self._rng.exponential(self.stack_scale))
            if d < len(stack):
                row = stack.pop(d)
                stack.insert(0, row)
                return row
        row = self._fresh_row()
        stack.insert(0, row)
        if len(stack) > self.stack_window:
            stack.pop()
        return row

    # ------------------------------------------------------------------
    def generate(self, n_lookups: int) -> np.ndarray:
        """A flat stream of ``n_lookups`` row ids."""
        out = np.empty(n_lookups, dtype=np.int64)
        for i in range(n_lookups):
            out[i] = self.next_row()
        return out

    def generate_bags(
        self, n_samples: int, lookups_per_sample: int
    ) -> List[np.ndarray]:
        """Per-sample bags (the SparseLengthsSum input layout)."""
        flat = self.generate(n_samples * lookups_per_sample)
        return [
            flat[i * lookups_per_sample : (i + 1) * lookups_per_sample]
            for i in range(n_samples)
        ]

    @property
    def unique_rows_seen(self) -> int:
        return self._fresh_counter
