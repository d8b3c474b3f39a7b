"""Recommendation-model base: sparse features, batches, the model protocol."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.bags import Bags, BagsLike, as_ids
from ..embedding.spec import TableSpec
from ..embedding.table import EmbeddingTable
from ..host.cpu import HostCpu
from ..params import Count, checked

__all__ = ["SparseFeature", "Batch", "RecModel", "IndexSampler"]

# n -> row ids.  ``RecModel.sample_batches`` draws each feature's sampler
# once for all its batches, where the first batch would have drawn it, so
# a sampler given for more than one batch is a stream of its own: drawing
# ``n`` then ``m`` ids returns what ``n + m`` at once would, it shares no
# RNG (the run's included), and no two features share it.  The trace
# generators' ``generate`` meets this; a user's sampler
# (``repro.cluster.users``) draws from the run's RNG and so is only ever
# given for one batch.
IndexSampler = Callable[[int], np.ndarray]


@dataclass(frozen=True)
class SparseFeature:
    """One categorical feature backed by one embedding table.

    ``lookups`` is the per-sample pooling factor ("indices per lookup" in
    the paper's Table 1).  ``sequence=True`` keeps each looked-up vector
    separate (bag size 1 per position) for attention/recurrent models.
    """

    spec: TableSpec
    lookups: int
    sequence: bool = False

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def bags_per_sample(self) -> int:
        """Result rows one sample contributes to this feature's SLS."""
        return self.lookups if self.sequence else 1


@dataclass
class Batch:
    """One request's inputs.

    ``bags[table]`` is that table's SparseLengthsSum input as
    ``(ids, offsets)`` — a :class:`~repro.core.bags.Bags`, which still
    reads as the sequence of per-result id arrays (``len``, iteration,
    indexing).  A hand-built batch may pass such a sequence instead; the
    serving layer flattens it once (``Bags.of``).
    """

    dense: np.ndarray                       # [B, dense_in] float32
    bags: Dict[str, BagsLike]               # table name -> per-result bags
    batch_size: int
    # Originating user (None = anonymous).  Locality-aware routers
    # (repro.cluster) key placement on it so repeat users land on hosts
    # whose embedding caches already hold their rows.
    user_id: Optional[int] = None


def _stream(
    name: str, sampler: IndexSampler, n: int, n_ids: int
) -> Sequence[np.ndarray]:
    """``n`` batches' ``n_ids`` ids each, from one draw of ``sampler``."""
    rows = as_ids(sampler(n * n_ids))
    if rows.size != n * n_ids:
        raise ValueError(
            f"sampler for {name!r} returned {rows.size} ids, "
            f"not the {n * n_ids} asked for"
        )
    # One batch keeps the array itself: a view would be a second array
    # object per request.
    return (rows,) if n == 1 else rows.reshape(n, n_ids)


class RecModel(ABC):
    """A recommendation model: tables + dense tower(s) + cost model."""

    @checked
    def __init__(self, name: str, dense_in: Count, features: Sequence[SparseFeature], seed: Count = 0):
        self.name = name
        self.dense_in = dense_in
        self.features = list(features)
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValueError("sparse feature names must be unique")
        self.seed = seed
        self.tables: Dict[str, EmbeddingTable] = {
            f.name: EmbeddingTable(f.spec, seed=seed + i * 1009 + 1)
            for i, f in enumerate(self.features)
        }

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    def sample_batch(
        self,
        rng: np.random.Generator,
        batch_size: int,
        samplers: Optional[Dict[str, IndexSampler]] = None,
    ) -> Batch:
        """Draw a batch; ``samplers`` overrides per-feature index sources."""
        return self.sample_batches(rng, batch_size, 1, samplers)[0]

    def sample_batches(
        self,
        rng: np.random.Generator,
        batch_size: int,
        n: int,
        samplers: Optional[Dict[str, IndexSampler]] = None,
    ) -> List[Batch]:
        """Draw ``n`` batches: what ``n`` calls of :meth:`sample_batch` give.

        Each sampler's stream is drawn once, for all ``n`` batches, where
        the first batch would have drawn it, and cut per batch — which
        the :data:`IndexSampler` contract makes equal to ``n`` draws.
        ``rng`` keeps its per-batch order: the dense inputs, then the
        features without a sampler, in feature order.
        """
        samplers = samplers or {}
        streams: Dict[str, Sequence[np.ndarray]] = {}
        batches: List[Batch] = []
        for i in range(n):
            dense = rng.standard_normal((batch_size, self.dense_in)).astype(np.float32)
            bags: Dict[str, Bags] = {}
            for feature in self.features:
                # One flat draw per feature, cut into bags where it lands: a
                # sequence feature keeps every id its own bag.
                n_ids = batch_size * feature.lookups
                sampler = samplers.get(feature.name)
                if sampler is None:
                    rows = rng.integers(0, feature.spec.rows, size=n_ids, dtype=np.int64)
                else:
                    if not i:
                        streams[feature.name] = _stream(feature.name, sampler, n, n_ids)
                    rows = streams[feature.name][i]
                bags[feature.name] = Bags.uniform(
                    rows, batch_size * feature.bags_per_sample
                )
            batches.append(Batch(dense=dense, bags=bags, batch_size=batch_size))
        return batches

    # ------------------------------------------------------------------
    # Embedding-output reshaping
    # ------------------------------------------------------------------
    def feature_values(
        self, feature: SparseFeature, emb_values: Dict[str, np.ndarray], batch_size: int
    ) -> np.ndarray:
        """[B, dim] for pooled features, [B, L, dim] for sequences."""
        values = emb_values[feature.name]
        if feature.sequence:
            return values.reshape(batch_size, feature.lookups, feature.spec.dim)
        return values

    # ------------------------------------------------------------------
    @abstractmethod
    def forward(
        self, dense: np.ndarray, emb_values: Dict[str, np.ndarray]
    ) -> np.ndarray:
        """Numeric scores [B] from dense inputs + per-table SLS outputs."""

    @abstractmethod
    def dense_time(self, batch_size: int, cpu: HostCpu) -> float:
        """Analytic latency of all non-embedding operators for one batch."""

    # ------------------------------------------------------------------
    def lookups_per_sample(self) -> int:
        return sum(f.lookups for f in self.features)

    def table_count(self) -> int:
        return len(self.features)

    def reference_emb(self, batch: Batch) -> Dict[str, np.ndarray]:
        """In-DRAM reference SLS values for every feature (test hook)."""
        return {
            f.name: self.tables[f.name].ref_sls(batch.bags[f.name])
            for f in self.features
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name}, tables={self.table_count()}, "
            f"lookups/sample={self.lookups_per_sample()})"
        )
