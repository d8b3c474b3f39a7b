"""Neural Collaborative Filtering (MLP-dominated class).

GMF path (elementwise product of user/item factors) plus an MLP path over
concatenated user/item embeddings, fused by a final linear layer — the
NeuMF architecture of He et al.
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

__all__ = ["NcfConfig", "NcfModel"]


@dataclass(frozen=True)
class NcfConfig:
    name: str
    user_rows: PosCount
    item_rows: PosCount
    dim: PosCount
    mlp_dims: Tuple[int, ...]
    dense_in: PosCount = 16       # context features
    layout: Layout = Layout.PACKED

    __post_init__ = check_domains

    def features(self) -> List[SparseFeature]:
        def table(suffix: str, rows: int) -> SparseFeature:
            return SparseFeature(
                spec=TableSpec(
                    name=f"{self.name}_{suffix}",
                    rows=rows,
                    dim=self.dim,
                    layout=self.layout,
                ),
                lookups=1,
            )

        return [
            table("user_mf", self.user_rows),
            table("item_mf", self.item_rows),
            table("user_mlp", self.user_rows),
            table("item_mlp", self.item_rows),
        ]


class NcfModel(RecModel):
    def __init__(self, config: NcfConfig, seed: int = 0):
        super().__init__(config.name, config.dense_in, config.features(), seed)
        self.config = config
        rng = np.random.default_rng(seed)
        mlp_in = 2 * config.dim + config.dense_in
        self.mlp = Mlp([mlp_in, *config.mlp_dims], rng)
        self.final = Mlp([config.dim + config.mlp_dims[-1], 1], rng)

    def forward(self, dense: np.ndarray, emb_values: Dict[str, np.ndarray]) -> np.ndarray:
        name = self.config.name
        gmf = emb_values[f"{name}_user_mf"] * emb_values[f"{name}_item_mf"]
        mlp_in = np.concatenate(
            [emb_values[f"{name}_user_mlp"], emb_values[f"{name}_item_mlp"], dense],
            axis=1,
        )
        mlp_out = self.mlp.forward(mlp_in)
        score = self.final.forward(np.concatenate([gmf, mlp_out], axis=1))
        return sigmoid(score).reshape(dense.shape[0])

    def dense_time(self, batch_size: int, cpu: HostCpu) -> float:
        gmf = cpu.elementwise_time(batch_size * self.config.dim * 4)
        return (
            gmf
            + self.mlp.time(batch_size, cpu)
            + self.final.time(batch_size, cpu)
        )
