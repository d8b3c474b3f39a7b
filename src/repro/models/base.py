"""Recommendation-model base: sparse features, batches, the model protocol."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..core.bags import Bags, BagsLike, as_ids
from ..embedding.spec import TableSpec
from ..embedding.table import EmbeddingTable
from ..host.cpu import HostCpu

__all__ = ["SparseFeature", "Batch", "RecModel", "IndexSampler", "uniform_sampler"]

IndexSampler = Callable[[int], np.ndarray]  # n -> row ids


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


def uniform_sampler(rows: int, rng: np.random.Generator) -> IndexSampler:
    return lambda n: rng.integers(0, rows, size=n, dtype=np.int64)


class RecModel(ABC):
    """A recommendation model: tables + dense tower(s) + cost model."""

    def __init__(self, name: str, dense_in: int, features: Sequence[SparseFeature], seed: int = 0):
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
        dense = rng.standard_normal((batch_size, self.dense_in)).astype(np.float32)
        bags: Dict[str, Bags] = {}
        for feature in self.features:
            sampler = (samplers or {}).get(feature.name) or uniform_sampler(
                feature.spec.rows, rng
            )
            # One flat draw per feature, cut into bags where it lands: a
            # sequence feature keeps every id its own bag.
            n_ids = batch_size * feature.lookups
            rows = as_ids(sampler(n_ids))
            if rows.size != n_ids:
                raise ValueError(
                    f"sampler for {feature.name!r} returned {rows.size} ids, "
                    f"not the {n_ids} asked for"
                )
            bags[feature.name] = Bags.uniform(
                rows, batch_size * feature.bags_per_sample
            )
        return Batch(dense=dense, bags=bags, batch_size=batch_size)

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
