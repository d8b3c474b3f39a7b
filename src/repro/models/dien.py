"""Deep Interest Evolution Network (GRU-based interest extraction)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..embedding.spec import Layout, TableSpec
from ..host.cpu import HostCpu
from ..params import PosCount, check_domains
from .base import RecModel, SparseFeature
from .layers import AttentionUnit, GruLayer, Mlp, sigmoid

__all__ = ["DienConfig", "DienModel"]


@dataclass(frozen=True)
class DienConfig:
    name: str
    item_rows: PosCount
    dim: PosCount
    history: PosCount
    gru_hidden: PosCount
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


class DienModel(RecModel):
    """Interest extraction GRU + attention-weighted evolution + top MLP.

    (The AUGRU evolution layer is approximated by attention-weighting the
    extracted interest states — the compute profile, one GRU pass plus an
    attention unit plus the top MLP, matches the benchmark's.)
    """

    def __init__(self, config: DienConfig, seed: int = 0):
        super().__init__(config.name, config.dense_in, config.features(), seed)
        self.config = config
        rng = np.random.default_rng(seed)
        self.gru = GruLayer(config.dim, config.gru_hidden, rng)
        self.evolution = GruLayer(config.gru_hidden, config.gru_hidden, rng)
        self.attention = AttentionUnit(config.gru_hidden, config.attention_hidden, rng)
        self.project = Mlp([config.dim, config.gru_hidden], rng)
        top_in = config.gru_hidden + config.dim + config.dense_in
        self.top = Mlp([top_in, *config.top_mlp, 1], rng)

    def forward(self, dense: np.ndarray, emb_values: Dict[str, np.ndarray]) -> np.ndarray:
        batch = dense.shape[0]
        hist_feature = self.features[0]
        history = self.feature_values(hist_feature, emb_values, batch)
        candidate = emb_values[f"{self.config.name}_cand"]
        interest = self.gru.forward(history)
        evolved = self.evolution.forward(interest)
        cand_h = self.project.forward(candidate)
        final_interest = self.attention.forward(evolved, cand_h)
        top_in = np.concatenate([final_interest, candidate, dense], axis=1)
        return sigmoid(self.top.forward(top_in)).reshape(batch)

    def dense_time(self, batch_size: int, cpu: HostCpu) -> float:
        cfg = self.config
        return (
            self.gru.time(batch_size, cfg.history, cpu)
            + self.evolution.time(batch_size, cfg.history, cpu)
            + self.attention.time(batch_size, cfg.history, cpu)
            + self.project.time(batch_size, cpu)
            + self.top.time(batch_size, cpu)
        )
