"""Figure 11: sensitivity of NDP benefit to model parameters.

(a) Feature size and quantization: as the embedding vector's share of a
    flash page grows, the SSD CPU does more accumulation work per page
    while the baseline's block reads stay constant, so relative NDP
    performance decreases.
(b) Indices per lookup amortize the per-operation control overhead and
    increase on-SSD accumulation value (speedup grows); table count
    splits the work into more NDP calls with per-table overheads
    (speedup mildly shrinks).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..models import BackendKind, DlrmConfig, DlrmModel, RunnerConfig
from ..quant import EmbDtype, QuantSpec
from ..embedding.spec import Layout, TableSpec
from ..serving.runner import ModelRunner
from .common import ExperimentResult, speedup

__all__ = ["run_feature_quant", "run_indices_tables", "run"]

BASE_ROWS = 65_536
BASE_BATCH = 32


def _measure(config: DlrmConfig, seed: int, batch: int, n_batches: int) -> tuple[float, float]:
    rng = np.random.default_rng(seed)
    batches = [DlrmModel(config, seed=seed).sample_batch(rng, batch)
               for _ in range(n_batches)]
    base = ModelRunner(
        DlrmModel(config, seed=seed),
        RunnerConfig(kind=BackendKind.SSD, pipelined=False),
    ).run_batches(batches)
    ndp = ModelRunner(
        DlrmModel(config, seed=seed),
        RunnerConfig(kind=BackendKind.NDP, pipelined=False),
    ).run_batches(batches)
    if not np.allclose(base.outputs[-1], ndp.outputs[-1], rtol=1e-4, atol=1e-5):
        raise AssertionError("fig11: NDP outputs diverge from baseline")
    return base.steady_latency, ndp.steady_latency


def _rm3_like(name: str, dim: int, lookups: int, tables: int) -> DlrmConfig:
    return DlrmConfig(
        name=name, dense_in=64, bottom_mlp=(128,), top_mlp=(64,),
        num_tables=tables, table_rows=BASE_ROWS, dim=dim, lookups=lookups,
    )


def run_feature_quant(fast: bool = True, seed: int = 0) -> ExperimentResult:
    dims = (16, 64) if fast else (16, 32, 64, 128)
    dtypes = (EmbDtype.FP32, EmbDtype.INT8) if fast else (
        EmbDtype.FP32, EmbDtype.FP16, EmbDtype.INT8
    )
    n_batches = 2
    rows = []
    for dim in dims:
        for dtype in dtypes:
            config = _rm3_like("fig11a", dim=dim, lookups=20, tables=4)
            quant = QuantSpec(dtype=dtype)
            base_s, ndp_s = _measure_quant(config, quant, seed, BASE_BATCH, n_batches)
            rows.append(
                {
                    "dim": dim,
                    "dtype": dtype.value,
                    "row_bytes": quant.row_bytes(dim),
                    "base_ms": base_s * 1e3,
                    "ndp_ms": ndp_s * 1e3,
                    "ndp_speedup": speedup(base_s, ndp_s),
                }
            )
    return ExperimentResult(
        experiment="fig11a",
        title="NDP speedup vs feature size and quantization (RM3-like model)",
        rows=rows,
    )


class _QuantDlrm(DlrmModel):
    """DLRM variant whose tables use a non-default element type."""

    def __init__(self, config: DlrmConfig, quant: QuantSpec, seed: int = 0):
        self._quant = quant
        super().__init__(config, seed=seed)
        # Rebuild tables with the quantized spec.
        from ..embedding.table import EmbeddingTable

        for i, feature in enumerate(list(self.features)):
            spec = TableSpec(
                name=feature.spec.name,
                rows=feature.spec.rows,
                dim=feature.spec.dim,
                quant=quant,
                layout=feature.spec.layout,
            )
            object.__setattr__(feature, "spec", spec)
            self.tables[feature.name] = EmbeddingTable(spec, seed=seed + i * 1009 + 1)


def _measure_quant(
    config: DlrmConfig, quant: QuantSpec, seed: int, batch: int, n_batches: int
) -> tuple[float, float]:
    rng = np.random.default_rng(seed)
    batches = [_QuantDlrm(config, quant, seed=seed).sample_batch(rng, batch)
               for _ in range(n_batches)]
    base = ModelRunner(
        _QuantDlrm(config, quant, seed=seed),
        RunnerConfig(kind=BackendKind.SSD, pipelined=False),
    ).run_batches(batches)
    ndp = ModelRunner(
        _QuantDlrm(config, quant, seed=seed),
        RunnerConfig(kind=BackendKind.NDP, pipelined=False),
    ).run_batches(batches)
    if not np.allclose(base.outputs[-1], ndp.outputs[-1], rtol=1e-3, atol=1e-4):
        raise AssertionError("fig11a: NDP outputs diverge from baseline")
    return base.steady_latency, ndp.steady_latency


def run_indices_tables(fast: bool = True, seed: int = 0) -> ExperimentResult:
    indices_sweep = (20, 120) if fast else (20, 40, 80, 120)
    tables_sweep = (2, 16) if fast else (2, 4, 8, 16, 32)
    n_batches = 2
    rows = []
    for lookups in indices_sweep:
        config = _rm3_like("fig11b_idx", dim=32, lookups=lookups, tables=4)
        base_s, ndp_s = _measure(config, seed, BASE_BATCH, n_batches)
        rows.append(
            {
                "sweep": "indices",
                "value": lookups,
                "base_ms": base_s * 1e3,
                "ndp_ms": ndp_s * 1e3,
                "ndp_speedup": speedup(base_s, ndp_s),
            }
        )
    for tables in tables_sweep:
        config = _rm3_like("fig11b_tab", dim=32, lookups=20, tables=tables)
        base_s, ndp_s = _measure(config, seed, BASE_BATCH, n_batches)
        rows.append(
            {
                "sweep": "tables",
                "value": tables,
                "base_ms": base_s * 1e3,
                "ndp_ms": ndp_s * 1e3,
                "ndp_speedup": speedup(base_s, ndp_s),
            }
        )
    return ExperimentResult(
        experiment="fig11b",
        title="NDP speedup vs indices per lookup and table count",
        rows=rows,
    )


def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    a = run_feature_quant(fast=fast, seed=seed)
    b = run_indices_tables(fast=fast, seed=seed)
    rows = [dict(panel="a", **r) for r in a.rows] + [
        dict(panel="b", **r) for r in b.rows
    ]
    return ExperimentResult(
        experiment="fig11",
        title="Model-parameter sensitivity (a: feature/quant, b: indices/tables)",
        rows=rows,
        notes=a.notes + b.notes,
    )
