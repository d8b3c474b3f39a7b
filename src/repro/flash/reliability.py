"""Flash reliability model: read retries and error injection.

NAND reads occasionally fail ECC and are retried with shifted read
voltages (read-retry), costing additional tR each attempt; reads that
exhaust retries are uncorrectable.  The model is seeded and deterministic
so failure-injection tests are reproducible.

This matters for RecSSD because NDP moves error handling inside the FTL:
a retried page delays only that page's translation, whereas on the
baseline path the whole host command waits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from ..params import Count, Domain, check_domains

__all__ = ["ReliabilityConfig", "ReadRetryModel", "UncorrectableError"]


class UncorrectableError(RuntimeError):
    """A page read failed ECC on every retry level."""


@dataclass(frozen=True)
class ReliabilityConfig:
    """Probability a read attempt fails ECC, and the retry budget."""

    read_fail_probability: Annotated[float, Domain(0.0, 1.0, hi_open=True)] = 0.0
    max_read_retries: Count = 3
    seed: Count = 0

    __post_init__ = check_domains


class ReadRetryModel:
    """Draws per-read retry counts; deterministic for a given seed."""

    def __init__(self, config: ReliabilityConfig):
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self.reads = 0
        self.retries = 0
        self.uncorrectable = 0

    def retries_for_read(self) -> int:
        """Number of extra attempts for the next read.

        Raises :class:`UncorrectableError` when the retry budget is
        exhausted (probability p^(1+max_retries)).
        """
        self.reads += 1
        p = self.config.read_fail_probability
        if p <= 0.0:
            return 0
        attempts = 0
        while self._rng.random() < p:
            attempts += 1
            if attempts > self.config.max_read_retries:
                self.uncorrectable += 1
                raise UncorrectableError(
                    f"read failed after {attempts} attempts"
                )
        self.retries += attempts
        return attempts

    @property
    def retry_rate(self) -> float:
        return self.retries / self.reads if self.reads else 0.0
