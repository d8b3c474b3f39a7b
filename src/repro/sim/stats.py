"""Statistics collection for the simulator and the modelled systems."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

from ..params import Fraction, checked

__all__ = [
    "Accumulator",
    "Breakdown",
    "rank_quantile",
    "summarize_latencies",
]


@checked
def rank_quantile(sorted_values: List[float], q: Fraction) -> float:
    """Quantile ``q`` in [0, 1] of an ascending-sorted list.

    Picks index ``round(q * (n - 1))`` — the only rank rule: every
    percentile this repo reports (``summary()`` dicts, goldens, ``perf``
    digests, the ``benchmarks/``, ``obs.analysis.attribute_p99``'s cohort
    threshold) is a sample this function picked.  It is not the textbook
    nearest-rank ``ceil(q * n)`` and it does not interpolate;
    ``tests/test_layering.py`` keeps a second rule out of ``src/`` and
    ``benchmarks/``.
    """
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


class Accumulator:
    """Streaming mean/min/max/variance accumulator (Welford)."""

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum", "total")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.total = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self) -> str:
        return (
            f"Accumulator(n={self.count}, mean={self.mean:.4g}, "
            f"min={self.minimum:.4g}, max={self.maximum:.4g})"
        )


class Breakdown:
    """Named time-component accounting (e.g. the Fig 8 FTL breakdown).

    Components accumulate seconds; the breakdown can be merged, scaled and
    rendered.  Unknown components are created on first use.
    """

    __slots__ = ("components",)

    def __init__(self, components: Optional[Dict[str, float]] = None):
        self.components: Dict[str, float] = dict(components or {})

    def add(self, name: str, seconds: float) -> None:
        self.components[name] = self.components.get(name, 0.0) + seconds

    def get(self, name: str) -> float:
        return self.components.get(name, 0.0)

    def merge(self, other: "Breakdown") -> "Breakdown":
        components = self.components
        for name, value in other.components.items():
            components[name] = components.get(name, 0.0) + value
        return self

    def scaled(self, factor: float) -> "Breakdown":
        return Breakdown({k: v * factor for k, v in self.components.items()})

    @property
    def total(self) -> float:
        return sum(self.components.values())

    def fractions(self) -> Dict[str, float]:
        total = self.total
        if total <= 0:
            return {k: 0.0 for k in self.components}
        return {k: v / total for k, v in self.components.items()}

    def copy(self) -> "Breakdown":
        return Breakdown(dict(self.components))

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v * 1e6:.1f}us" for k, v in self.components.items())
        return f"Breakdown({parts})"


def summarize_latencies(latencies_s: List[float]) -> Dict[str, float]:
    """Mean / min / max / p50 / p95 / p99 / count of a latency population
    in seconds, reported in ms — one sort, percentiles by
    :func:`rank_quantile`."""
    acc = Accumulator()
    acc.extend(latencies_s)
    ordered = sorted(latencies_s)
    return {
        "mean_ms": acc.mean * 1e3,
        "min_ms": (acc.minimum if acc.count else 0.0) * 1e3,
        "max_ms": (acc.maximum if acc.count else 0.0) * 1e3,
        "p50_ms": rank_quantile(ordered, 0.50) * 1e3,
        "p95_ms": rank_quantile(ordered, 0.95) * 1e3,
        "p99_ms": rank_quantile(ordered, 0.99) * 1e3,
        "count": float(acc.count),
    }
