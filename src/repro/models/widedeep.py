"""Wide & Deep and Multi-Task Wide & Deep (MLP-dominated class)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..embedding.spec import Layout, TableSpec
from ..host.cpu import HostCpu
from ..params import PosCount, check_domains
from .base import RecModel, SparseFeature
from .layers import Mlp, sigmoid

__all__ = ["WideDeepConfig", "WideDeepModel", "MultiTaskWideDeepModel"]


@dataclass(frozen=True)
class WideDeepConfig:
    name: str
    dense_in: PosCount
    deep_mlp: Tuple[int, ...]         # hidden dims of the deep tower
    num_tables: PosCount
    table_rows: PosCount
    dim: PosCount
    lookups: PosCount = 1
    num_tasks: PosCount = 1           # >1 -> multi-task towers (MTWND)
    tower_mlp: Tuple[int, ...] = (256,)
    layout: Layout = Layout.PACKED

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


class WideDeepModel(RecModel):
    """Wide linear part over dense features + deep MLP over dense||embeddings."""

    def __init__(self, config: WideDeepConfig, seed: int = 0):
        super().__init__(config.name, config.dense_in, config.features(), seed)
        self.config = config
        rng = np.random.default_rng(seed)
        deep_in = config.dense_in + config.num_tables * config.dim
        self.deep = Mlp([deep_in, *config.deep_mlp, 1], rng)
        self.wide = Mlp([config.dense_in, 1], rng)

    def _deep_input(self, dense: np.ndarray, emb_values: Dict[str, np.ndarray]) -> np.ndarray:
        return np.concatenate(
            [dense] + [emb_values[f.name] for f in self.features], axis=1
        )

    def forward(self, dense: np.ndarray, emb_values: Dict[str, np.ndarray]) -> np.ndarray:
        deep = self.deep.forward(self._deep_input(dense, emb_values))
        wide = self.wide.forward(dense)
        return sigmoid(deep + wide).reshape(dense.shape[0])

    def dense_time(self, batch_size: int, cpu: HostCpu) -> float:
        return self.deep.time(batch_size, cpu) + self.wide.time(batch_size, cpu)


class MultiTaskWideDeepModel(WideDeepModel):
    """Shared deep bottom + per-task towers (the MTWND benchmark)."""

    def __init__(self, config: WideDeepConfig, seed: int = 0):
        if config.num_tasks < 2:
            raise ValueError("MTWND needs num_tasks >= 2")
        super().__init__(config, seed)
        rng = np.random.default_rng(seed + 17)
        deep_in = config.dense_in + config.num_tables * config.dim
        shared_out = config.deep_mlp[-1]
        self.shared = Mlp([deep_in, *config.deep_mlp], rng)
        self.towers = [
            Mlp([shared_out, *config.tower_mlp, 1], rng)
            for _ in range(config.num_tasks)
        ]

    def forward(self, dense: np.ndarray, emb_values: Dict[str, np.ndarray]) -> np.ndarray:
        shared = self.shared.forward(self._deep_input(dense, emb_values))
        task_scores = [tower.forward(shared) for tower in self.towers]
        wide = self.wide.forward(dense)
        combined = np.mean(np.stack(task_scores, axis=0), axis=0) + wide
        return sigmoid(combined).reshape(dense.shape[0])

    def dense_time(self, batch_size: int, cpu: HostCpu) -> float:
        total = self.shared.time(batch_size, cpu) + self.wide.time(batch_size, cpu)
        for tower in self.towers:
            total += tower.time(batch_size, cpu)
        return total
