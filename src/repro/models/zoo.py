"""The eight industry-representative benchmark models (DeepRecInfra set).

Table 1 of the paper differentiates the embedding-dominated models:

    =========  ============  =======  ===========
    Benchmark  Feature size  Indices  Table count
    =========  ============  =======  ===========
    RM1        32            80       8
    RM2        64            120      32
    RM3        32            20       10
    =========  ============  =======  ===========

The MLP-dominated models (WND, MTWND, DIN, DIEN, NCF) use small packed
tables with few lookups and heavy dense towers.  Default table rows for
the RMC models are scaled to 128K (the paper notes absolute table size
does not affect the results — access patterns do); pass ``table_rows``
to restore the paper's 1M.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .base import RecModel
from .dien import DienConfig, DienModel
from .din import DinConfig, DinModel
from .dlrm import DlrmConfig, DlrmModel
from .ncf import NcfConfig, NcfModel
from .widedeep import MultiTaskWideDeepModel, WideDeepConfig, WideDeepModel

__all__ = [
    "MODEL_NAMES",
    "MLP_DOMINATED",
    "EMBEDDING_DOMINATED",
    "TableOneRow",
    "table_one",
    "build_model",
]

MLP_DOMINATED = ("wnd", "mtwnd", "din", "dien", "ncf")
EMBEDDING_DOMINATED = ("rm1", "rm2", "rm3")
MODEL_NAMES = MLP_DOMINATED + EMBEDDING_DOMINATED

DEFAULT_RMC_ROWS = 131_072


@dataclass(frozen=True)
class TableOneRow:
    benchmark: str
    feature_size: int
    indices: int
    table_count: int


def table_one() -> List[TableOneRow]:
    """The paper's Table 1 (differentiating benchmark parameters)."""
    return [
        TableOneRow("RM1", 32, 80, 8),
        TableOneRow("RM2", 64, 120, 32),
        TableOneRow("RM3", 32, 20, 10),
    ]


def _rmc_config(name: str, table_rows: int) -> DlrmConfig:
    if name == "rm1":
        return DlrmConfig(
            name="rm1", dense_in=64, bottom_mlp=(128, 64), top_mlp=(256, 128),
            num_tables=8, table_rows=table_rows, dim=32, lookups=80,
        )
    if name == "rm2":
        return DlrmConfig(
            name="rm2", dense_in=64, bottom_mlp=(256, 128), top_mlp=(512, 256),
            num_tables=32, table_rows=table_rows, dim=64, lookups=120,
        )
    if name == "rm3":
        return DlrmConfig(
            name="rm3", dense_in=128, bottom_mlp=(1024, 512, 256), top_mlp=(512, 256),
            num_tables=10, table_rows=table_rows, dim=32, lookups=20,
        )
    raise KeyError(name)


def build_model(
    name: str,
    seed: int = 0,
    table_rows: Optional[int] = None,
) -> RecModel:
    """Instantiate a benchmark model by name (see ``MODEL_NAMES``)."""
    name = name.lower()
    if name in EMBEDDING_DOMINATED:
        rows = table_rows or DEFAULT_RMC_ROWS
        return DlrmModel(_rmc_config(name, rows), seed=seed)
    if name == "wnd":
        return WideDeepModel(
            WideDeepConfig(
                name="wnd", dense_in=256, deep_mlp=(2048, 1024, 512),
                num_tables=4, table_rows=table_rows or 65_536, dim=32,
            ),
            seed=seed,
        )
    if name == "mtwnd":
        return MultiTaskWideDeepModel(
            WideDeepConfig(
                name="mtwnd", dense_in=256, deep_mlp=(2048, 1024),
                num_tables=4, table_rows=table_rows or 65_536, dim=32,
                num_tasks=3, tower_mlp=(512, 256),
            ),
            seed=seed,
        )
    if name == "ncf":
        return NcfModel(
            NcfConfig(
                name="ncf", user_rows=table_rows or 131_072, item_rows=16_384,
                dim=64, mlp_dims=(1024, 1024, 512),
            ),
            seed=seed,
        )
    if name == "din":
        return DinModel(
            DinConfig(
                name="din", item_rows=table_rows or 8_192, dim=32, history=8,
                attention_hidden=64, top_mlp=(512, 256),
            ),
            seed=seed,
        )
    if name == "dien":
        return DienModel(
            DienConfig(
                name="dien", item_rows=table_rows or 8_192, dim=32, history=8,
                gru_hidden=24, attention_hidden=64, top_mlp=(256, 128),
            ),
            seed=seed,
        )
    raise KeyError(f"unknown model {name!r}; choose from {MODEL_NAMES}")
