"""Figure 5: a single SLS operator, DRAM vs COTS SSD, across batch sizes.

The paper's configuration: one embedding table of 1M rows x 32 features,
80 lookups per sample.  Storing the table on a conventional SSD makes the
operator ~3 orders of magnitude slower than DRAM — software/command
overheads plus the ~10K IOPS whole-stack random-read ceiling vs ~1GB/s
DRAM gathers.
"""

from __future__ import annotations

import numpy as np

from ..embedding.backends import DramSlsBackend, SsdSlsBackend
from ..embedding.spec import Layout, TableSpec
from ..embedding.table import EmbeddingTable
from ..host.system import build_system
from .common import ExperimentResult, speedup

__all__ = ["run"]


def run(
    fast: bool = True,
    seed: int = 0,
    table_rows: int = 1 << 20,
    dim: int = 32,
    lookups: int = 80,
) -> ExperimentResult:
    batch_sizes = (1, 8, 64) if fast else (1, 4, 16, 64, 256)
    rng = np.random.default_rng(seed)
    rows = []
    for batch in batch_sizes:
        system = build_system(min_capacity_pages=table_rows + (1 << 16))
        table = EmbeddingTable(
            TableSpec("fig5", rows=table_rows, dim=dim, layout=Layout.ONE_PER_PAGE),
            seed=seed,
        )
        table.attach(system.device)
        bags = [
            rng.integers(0, table_rows, size=lookups, dtype=np.int64)
            for _ in range(batch)
        ]
        dram = DramSlsBackend(system, table).run_sync(bags)
        ssd = SsdSlsBackend(system, table).run_sync(bags)
        if not np.allclose(dram.values, ssd.values, rtol=1e-4, atol=1e-5):
            raise AssertionError("fig5: SSD result diverges from DRAM reference")
        rows.append(
            {
                "batch": batch,
                "dram_ms": dram.latency * 1e3,
                "ssd_ms": ssd.latency * 1e3,
                "slowdown": speedup(ssd.latency, dram.latency),
                "ssd_commands": ssd.stats.get("commands", 0.0),
            }
        )
    return ExperimentResult(
        experiment="fig5",
        title="SparseLengthsSum latency: DRAM vs SSD (1M x 32 table, 80 lookups)",
        rows=rows,
    )
