"""Figure 8: standalone SLS operator, SEQ vs STR, baseline vs NDP, with the
FTL time breakdown (Config Write / Config Process / Translation / Flash Read).

SEQ uses contiguous embedding ids (high spatial locality: many vectors per
flash page touched); STR strides by one flash page per vector so every
lookup hits a distinct page.  NDP wins on STR (internal bandwidth + fewer
commands, up to ~4x) and loses on SEQ (the slow ARM does the aggregation
the host CPU would do nearly for free).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..embedding.backends import NdpSlsBackend, SsdSlsBackend
from ..embedding.spec import Layout, TableSpec
from ..embedding.table import EmbeddingTable
from ..host.system import build_system
from .common import ExperimentResult, speedup

__all__ = ["run", "make_pattern_bags"]

PATTERNS = ("SEQ", "STR")


def make_pattern_bags(
    pattern: str,
    batch: int,
    lookups: int,
    table_rows: int,
    rows_per_page: int,
    rng: np.random.Generator,
) -> List[np.ndarray]:
    """SEQ: contiguous ids; STR: one id per flash page (strided)."""
    bags = []
    for b in range(batch):
        if pattern == "SEQ":
            base = int(rng.integers(0, table_rows - lookups))
            ids = np.arange(base, base + lookups, dtype=np.int64)
        elif pattern == "STR":
            start_page = b * lookups
            pages = (start_page + np.arange(lookups, dtype=np.int64)) % (
                table_rows // rows_per_page
            )
            ids = pages * rows_per_page
        else:
            raise ValueError(f"unknown pattern {pattern!r}")
        bags.append(ids)
    return bags


def run(
    fast: bool = True,
    seed: int = 0,
    dim: int = 32,
    lookups: int = 80,
) -> ExperimentResult:
    table_rows = (1 << 19) if fast else (1 << 21)
    batch_sizes = (16, 64) if fast else (8, 32, 64, 128, 256)
    rng = np.random.default_rng(seed)
    rows = []
    for pattern in PATTERNS:
        for batch in batch_sizes:
            # Separate systems per backend so the baseline run cannot warm
            # the device page cache for the NDP run (or vice versa).
            def fresh() -> tuple:
                system = build_system(min_capacity_pages=table_rows // 64 + (1 << 16))
                table = EmbeddingTable(
                    TableSpec("fig8", rows=table_rows, dim=dim, layout=Layout.PACKED),
                    seed=seed,
                )
                table.attach(system.device)
                return system, table

            sys_base, table_base = fresh()
            sys_ndp, table_ndp = fresh()
            bags = make_pattern_bags(
                pattern, batch, lookups, table_rows, table_base.rows_per_page, rng
            )
            base = SsdSlsBackend(sys_base, table_base).run_sync(bags)
            ndp = NdpSlsBackend(sys_ndp, table_ndp).run_sync(bags)
            if not np.allclose(base.values, ndp.values, rtol=1e-4, atol=1e-5):
                raise AssertionError("fig8: NDP result diverges from baseline")
            bd = ndp.breakdown
            rows.append(
                {
                    "pattern": pattern,
                    "batch": batch,
                    "base_ms": base.latency * 1e3,
                    "ndp_ms": ndp.latency * 1e3,
                    "ndp_speedup": speedup(base.latency, ndp.latency),
                    "config_write_ms": bd.get("config_write") * 1e3,
                    "config_process_ms": bd.get("config_process") * 1e3,
                    "translation_ms": bd.get("translation") * 1e3,
                    "flash_read_ms": bd.get("flash_read") * 1e3,
                    "flash_pages": ndp.stats.get("flash_pages_read", 0.0),
                    "base_commands": base.stats.get("commands", 0.0),
                }
            )
    return ExperimentResult(
        experiment="fig8",
        title="SLS operator microbenchmark: SEQ/STR x baseline/NDP + FTL breakdown",
        rows=rows,
    )
