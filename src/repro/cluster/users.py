"""User-keyed traffic: the workload shape that makes routing policy matter.

Production recommendation traffic is *user-correlated*: one user's
requests keep touching the same embedding rows (their interaction
history), and user popularity is heavy-tailed.  :class:`UserPopulation`
models exactly that — a Zipf-popular user base where each user owns a
deterministic per-table row profile — and the ``User*Generator``
subclasses stamp the drawn user onto every :class:`~repro.models.Batch`
(``batch.user_id``) so the cluster front-end can route on it.

Why this separates the routers (``benchmarks/bench_cluster.py``):

* under :class:`~repro.cluster.router.ConsistentHashRouter` each host
  serves a stable ~1/N slice of the user base, so its embedding caches
  (host LRU, device emb-cache) hold those users' rows across visits —
  per-host working set shrinks with fleet size;
* under round-robin the same user sprays across all hosts: every host
  sees the full user base with N× more strangers between one user's
  visits, evicting their rows before they return.

Determinism: user draws and the uniform (non-reused) id fraction come
from the run's shared RNG in schedule order; a user's *profile* rows are
a pure hash of (user, table, position) — no RNG, so the same user
requests the same rows on every visit, which is the locality being
modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..models.base import Batch, IndexSampler, RecModel, SparseFeature
from ..params import Count, Fraction, NonNeg, PosCount, check_domains
from ..workload.generators import ClosedLoopGenerator, OpenLoopGenerator

__all__ = [
    "UserPopulation",
    "UserOpenLoopGenerator",
    "UserClosedLoopGenerator",
]

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 (wrapping) arrays."""
    x = (x + _GOLD) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


@dataclass(eq=False)
class UserPopulation:
    """A Zipf-popular user base with per-user embedding-row profiles.

    ``n_users`` sizes the id space; ``alpha`` shapes popularity (weight
    of the rank-``r`` user ∝ ``1 / r**alpha``; larger = more skew, the
    paper's Fig 3 power-law shape applied to users instead of rows);
    ``seed`` permutes which user ids are popular.  ``reuse`` is the
    fraction of each request's lookups drawn from the user's fixed
    profile — the rest are uniform one-off rows (1.0 = pure revisit
    traffic, 0.0 = anonymous traffic that no router can exploit).
    """

    n_users: PosCount
    alpha: NonNeg = 1.05
    seed: Count = 0
    reuse: Fraction = 1.0

    def __post_init__(self) -> None:
        check_domains(self)
        weights = 1.0 / np.arange(1, self.n_users + 1, dtype=np.float64) ** self.alpha
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        # Rank -> user id: popularity must not correlate with id order,
        # or hashing ids would accidentally sort hot users together.
        self._perm = np.random.default_rng(self.seed).permutation(self.n_users)

    # ------------------------------------------------------------------
    def draw(self, rng: np.random.Generator) -> int:
        """One user id, Zipf-weighted, from the run's shared RNG."""
        rank = int(
            np.searchsorted(self._cdf, float(rng.random()), side="right")
        )
        return int(self._perm[min(rank, self.n_users - 1)])

    def profile_rows(
        self, user: int, feature_index: int, rows: int, count: int
    ) -> np.ndarray:
        """The user's first ``count`` profile rows for one table.

        A pure hash of (population seed, user, table, position): no RNG,
        so every visit of ``user`` requests the same rows — revisit
        locality a cache can convert into hits.
        """
        # Scalar base in Python ints (explicit wrap — numpy warns on
        # scalar uint64 overflow), then vectorized mixing per position.
        base = (
            (user * 0x9E3779B97F4A7C15)
            ^ ((feature_index + 1) * 0xBF58476D1CE4E5B9)
            ^ (self.seed * 0x94D049BB133111EB)
        ) & 0xFFFFFFFFFFFFFFFF
        position = np.arange(count, dtype=np.uint64)
        x = np.uint64(base) ^ position * np.uint64(0x2545F4914F6CDD1D)
        return (_mix64(x) % np.uint64(rows)).astype(np.int64)

    def sampler(
        self,
        user: int,
        feature_index: int,
        feature: SparseFeature,
        rng: np.random.Generator,
    ) -> IndexSampler:
        """An :data:`IndexSampler` blending the user's profile with
        ``1 - reuse`` uniform one-off rows."""
        rows = feature.spec.rows

        def sample(n: int) -> np.ndarray:
            ids = self.profile_rows(user, feature_index, rows, n)
            if self.reuse < 1.0:
                oneoff = rng.random(n) >= self.reuse
                k = int(oneoff.sum())
                if k:
                    ids[oneoff] = rng.integers(0, rows, size=k, dtype=np.int64)
            return ids

        return sample

    def sample_user_batch(
        self,
        model: RecModel,
        rng: np.random.Generator,
        batch_size: int,
    ) -> Batch:
        """Draw a user, then a batch of their traffic (``user_id`` set)."""
        user = self.draw(rng)
        samplers: Dict[str, IndexSampler] = {
            f.name: self.sampler(user, i, f, rng)
            for i, f in enumerate(model.features)
        }
        batch = model.sample_batch(rng, batch_size, samplers=samplers)
        batch.user_id = user
        return batch


class _UserTrafficMixin:
    """Replaces a generator's batch sampling with user-keyed sampling."""

    population: UserPopulation

    def _sample(self, server, rng: np.random.Generator, n: int) -> List[Batch]:
        # One request at a time: each draws its user from the run's RNG,
        # and so do the user's samplers.
        model = server.models[self.model]  # KeyError for unknown models
        return [
            self.population.sample_user_batch(model, rng, self.batch_size)
            for _ in range(n)
        ]


class UserOpenLoopGenerator(_UserTrafficMixin, OpenLoopGenerator):
    """Open-loop arrivals where every request belongs to a drawn user."""

    def __init__(
        self,
        model: str,
        population: UserPopulation,
        rate: Optional[float] = None,
        n_requests: int = 0,
        batch_size: int = 1,
        arrivals: Optional[np.ndarray] = None,
    ):
        super().__init__(
            model,
            rate=rate,
            n_requests=n_requests,
            batch_size=batch_size,
            arrivals=arrivals,
        )
        self.population = population


class UserClosedLoopGenerator(_UserTrafficMixin, ClosedLoopGenerator):
    """Closed-loop clients whose turns each belong to a drawn user."""

    def __init__(
        self,
        model: str,
        population: UserPopulation,
        num_clients: int,
        requests_per_client: int,
        think_time_s: float = 0.0,
        batch_size: int = 1,
    ):
        super().__init__(
            model,
            num_clients=num_clients,
            requests_per_client=requests_per_client,
            think_time_s=think_time_s,
            batch_size=batch_size,
        )
        self.population = population
