"""Deep Interest Network (attention over user behaviour history)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..embedding.spec import Layout, TableSpec
from ..host.cpu import HostCpu
from ..params import PosCount, check_domains
from .base import RecModel, SparseFeature
from .layers import AttentionUnit, Mlp, sigmoid

__all__ = ["DinConfig", "DinModel"]


@dataclass(frozen=True)
class DinConfig:
    name: str
    item_rows: PosCount
    dim: PosCount
    history: PosCount
    attention_hidden: PosCount
    top_mlp: Tuple[int, ...]
    dense_in: PosCount = 16
    layout: Layout = Layout.PACKED

    __post_init__ = check_domains

    def features(self) -> List[SparseFeature]:
        def table(suffix: str, lookups: int, sequence: bool) -> SparseFeature:
            return SparseFeature(
                spec=TableSpec(
                    name=f"{self.name}_{suffix}",
                    rows=self.item_rows,
                    dim=self.dim,
                    layout=self.layout,
                ),
                lookups=lookups,
                sequence=sequence,
            )

        return [
            table("hist", self.history, sequence=True),
            table("cand", 1, sequence=False),
        ]


class DinModel(RecModel):
    def __init__(self, config: DinConfig, seed: int = 0):
        super().__init__(config.name, config.dense_in, config.features(), seed)
        self.config = config
        rng = np.random.default_rng(seed)
        self.attention = AttentionUnit(config.dim, config.attention_hidden, rng)
        top_in = 2 * config.dim + config.dense_in
        self.top = Mlp([top_in, *config.top_mlp, 1], rng)

    def forward(self, dense: np.ndarray, emb_values: Dict[str, np.ndarray]) -> np.ndarray:
        batch = dense.shape[0]
        hist_feature = self.features[0]
        history = self.feature_values(hist_feature, emb_values, batch)
        candidate = emb_values[f"{self.config.name}_cand"]
        interest = self.attention.forward(history, candidate)
        top_in = np.concatenate([interest, candidate, dense], axis=1)
        return sigmoid(self.top.forward(top_in)).reshape(batch)

    def dense_time(self, batch_size: int, cpu: HostCpu) -> float:
        return (
            self.attention.time(batch_size, self.config.history, cpu)
            + self.top.time(batch_size, cpu)
        )
