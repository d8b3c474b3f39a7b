"""DLRM-style models (the embedding-dominated RMC1/RMC2/RMC3 class).

Bottom MLP projects dense features to the embedding dimension, a dot
interaction combines it with the pooled embedding vectors, and a top MLP
produces the click-through score — the architecture of Facebook's DLRM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..embedding.spec import Layout, TableSpec
from ..host.cpu import HostCpu
from ..params import PosCount, check_domains
from .base import RecModel, SparseFeature
from .layers import Mlp, sigmoid

__all__ = ["DlrmConfig", "DlrmModel"]


@dataclass(frozen=True)
class DlrmConfig:
    name: str
    dense_in: PosCount
    bottom_mlp: Tuple[int, ...]      # hidden dims; output dim is appended
    top_mlp: Tuple[int, ...]         # hidden dims; input/output appended
    num_tables: PosCount
    table_rows: PosCount
    dim: PosCount
    lookups: PosCount
    layout: Layout = Layout.ONE_PER_PAGE

    __post_init__ = check_domains

    def features(self) -> List[SparseFeature]:
        return [
            SparseFeature(
                spec=TableSpec(
                    name=f"{self.name}_emb{i}",
                    rows=self.table_rows,
                    dim=self.dim,
                    layout=self.layout,
                ),
                lookups=self.lookups,
            )
            for i in range(self.num_tables)
        ]


class DlrmModel(RecModel):
    def __init__(self, config: DlrmConfig, seed: int = 0):
        super().__init__(config.name, config.dense_in, config.features(), seed)
        self.config = config
        rng = np.random.default_rng(seed)
        self.bottom = Mlp(
            [config.dense_in, *config.bottom_mlp, config.dim], rng
        )
        n_vectors = config.num_tables + 1  # pooled tables + bottom output
        self._n_interactions = n_vectors * (n_vectors - 1) // 2
        top_in = config.dim + self._n_interactions
        self.top = Mlp([top_in, *config.top_mlp, 1], rng)

    # ------------------------------------------------------------------
    def forward(self, dense: np.ndarray, emb_values: Dict[str, np.ndarray]) -> np.ndarray:
        batch = dense.shape[0]
        z = self.bottom.forward(dense)
        vectors = [z] + [emb_values[f.name] for f in self.features]
        stacked = np.stack(vectors, axis=1)  # [B, T+1, d]
        gram = stacked @ stacked.transpose(0, 2, 1)  # [B, T+1, T+1]
        iu, ju = np.triu_indices(stacked.shape[1], k=1)
        interactions = gram[:, iu, ju]  # [B, C]
        top_in = np.concatenate([z, interactions], axis=1)
        return sigmoid(self.top.forward(top_in)).reshape(batch)

    def dense_time(self, batch_size: int, cpu: HostCpu) -> float:
        n_vectors = self.config.num_tables + 1
        interaction = cpu.gemm_time(
            batch_size * n_vectors, n_vectors, self.config.dim
        )
        return (
            self.bottom.time(batch_size, cpu)
            + interaction
            + self.top.time(batch_size, cpu)
        )
