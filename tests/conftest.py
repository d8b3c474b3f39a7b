"""Shared fixtures for the RecSSD reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embedding.spec import Layout, TableSpec
from repro.embedding.table import EmbeddingTable
from repro.host.system import System, build_system
from repro.models.base import RecModel, SparseFeature
from repro.quant import QuantSpec
from repro.sim.kernel import Simulator
from repro.ssd.presets import small_ssd


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def small_device(sim):
    return small_ssd(sim)


@pytest.fixture
def system() -> System:
    """A modest Cosmos+-like full system (64K pages = 1GiB)."""
    return build_system(min_capacity_pages=1 << 16)


def make_table(
    system: System,
    rows: int = 2048,
    dim: int = 32,
    layout: Layout = Layout.ONE_PER_PAGE,
    quant: QuantSpec | None = None,
    seed: int = 11,
    name: str = "t",
) -> EmbeddingTable:
    spec = TableSpec(
        name=name, rows=rows, dim=dim, quant=quant or QuantSpec(), layout=layout
    )
    table = EmbeddingTable(spec, seed=seed)
    table.attach(system.device)
    return table


def random_bags(rng: np.random.Generator, rows: int, n_bags: int, bag_size: int):
    return [rng.integers(0, rows, size=bag_size, dtype=np.int64) for _ in range(n_bags)]


class OneTableModel(RecModel):
    """The least a server registers: one sparse feature, no dense tower
    (the engine and backend equivalence suites build their servers on it)."""

    def __init__(self, spec: TableSpec):
        super().__init__("eq", 4, [SparseFeature(spec=spec, lookups=4)], seed=7)

    def forward(self, dense, emb_values):
        return np.zeros(dense.shape[0], dtype=np.float32)

    def dense_time(self, batch_size, cpu):
        return 0.0
