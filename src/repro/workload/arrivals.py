"""Arrival processes and recorded arrival traces.

An :class:`ArrivalTrace` pins down *when* requests arrive — as absolute
offsets from a run's start — independently of what they look up.  That
split is what makes serving experiments replayable: generate (or record)
the trace once, then drive any backend/policy configuration with the
identical arrival sequence, so latency differences are attributable to
the serving stack rather than to arrival noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ..params import Count, Pos, checked

__all__ = ["ArrivalTrace", "arrival_offsets", "poisson_gaps", "uniform_gaps"]

RngOrSeed = Union[int, np.random.Generator]


def _as_rng(rng_or_seed: RngOrSeed) -> np.random.Generator:
    if isinstance(rng_or_seed, np.random.Generator):
        return rng_or_seed
    return np.random.default_rng(rng_or_seed)


@checked
def poisson_gaps(rate: Pos, n: Count, rng_or_seed: RngOrSeed = 0) -> np.ndarray:
    """``n`` exponential inter-arrival gaps for a Poisson process at
    ``rate`` requests per simulated second."""
    return _as_rng(rng_or_seed).exponential(1.0 / rate, size=n)

@checked
def uniform_gaps(rate: Pos, n: Count) -> np.ndarray:
    """``n`` deterministic gaps (constant ``1/rate``) — the zero-variance
    arrival process, useful for isolating service-time variance."""
    return np.full(n, 1.0 / rate)


def arrival_offsets(times) -> np.ndarray:
    """``times`` as a float64 vector of arrival offsets from a run's
    start, refusing what no run can replay: more than one dimension, a
    non-finite or negative offset, or a step back in time."""
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1:
        raise ValueError("times must be one-dimensional")
    if not np.all(np.isfinite(times)):
        raise ValueError("arrival times must be finite")
    if times.size and times[0] < 0:
        raise ValueError("arrival times must be >= 0")
    if np.any(np.diff(times) < 0):
        raise ValueError("arrival times must be ascending")
    return times


@dataclass(frozen=True)
class ArrivalTrace:
    """Absolute arrival offsets (seconds from run start) for one model.

    ``times`` must be finite, non-negative and ascending.  Build one from an
    arrival process (:meth:`poisson`, :meth:`uniform`), from recorded
    gaps (:meth:`from_gaps`), or directly from the ``t_arrival`` stamps
    of a finished run's requests — then hand its ``times`` to
    :class:`~repro.workload.generators.OpenLoopGenerator` as
    ``arrivals``, or the trace to a ``"replay"``
    :class:`~repro.workload.scenario.TenantSpec`, to replay the exact
    sequence.
    """

    model: str
    times: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", arrival_offsets(self.times))

    # ------------------------------------------------------------------
    @classmethod
    def from_gaps(cls, model: str, gaps: np.ndarray) -> "ArrivalTrace":
        """Accumulate inter-arrival gaps exactly as the open-loop
        scheduler does (sequential float addition, not vectorized cumsum,
        so a recorded trace reproduces the seeded run bit-for-bit)."""
        times = np.empty(len(gaps), dtype=np.float64)
        arrival = 0.0
        for i, gap in enumerate(gaps):
            arrival += float(gap)
            times[i] = arrival
        return cls(model, times)

    @classmethod
    def poisson(
        cls, model: str, rate: float, n: int, rng_or_seed: RngOrSeed = 0
    ) -> "ArrivalTrace":
        return cls.from_gaps(model, poisson_gaps(rate, n, rng_or_seed))

    @classmethod
    def uniform(cls, model: str, rate: float, n: int) -> "ArrivalTrace":
        return cls.from_gaps(model, uniform_gaps(rate, n))

    # ------------------------------------------------------------------
    @property
    def n_requests(self) -> int:
        return int(self.times.size)

    @property
    def duration_s(self) -> float:
        return float(self.times[-1]) if self.times.size else 0.0

    @property
    def offered_rps(self) -> float:
        """Mean offered rate over the trace span.

        The span runs from time 0 (the first arrival sits one gap in),
        so a uniform trace at rate R reports exactly R.
        """
        if self.times.size < 1 or self.duration_s <= 0:
            return 0.0
        return self.n_requests / self.duration_s

    def __repr__(self) -> str:
        return (
            f"ArrivalTrace({self.model}, n={self.n_requests}, "
            f"span={self.duration_s:.3f}s, ~{self.offered_rps:.0f}rps)"
        )
