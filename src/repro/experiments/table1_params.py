"""Table 1: differentiating benchmark parameters of RM1/RM2/RM3.

Prints the paper's table and cross-checks it against the actual built
models (feature size, indices per lookup, table count).
"""

from __future__ import annotations

from ..models import build_model
from ..models.zoo import table_one
from .common import ExperimentResult

__all__ = ["run"]


def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    rows = []
    for entry in table_one():
        model = build_model(entry.benchmark.lower(), seed=seed)
        dims = {f.spec.dim for f in model.features}
        lookups = {f.lookups for f in model.features}
        if dims != {entry.feature_size}:
            raise AssertionError(f"{entry.benchmark}: dim mismatch {dims}")
        if lookups != {entry.indices}:
            raise AssertionError(f"{entry.benchmark}: indices mismatch {lookups}")
        if model.table_count() != entry.table_count:
            raise AssertionError(
                f"{entry.benchmark}: table count {model.table_count()}"
            )
        rows.append(
            {
                "benchmark": entry.benchmark,
                "feature_size": entry.feature_size,
                "indices": entry.indices,
                "table_count": entry.table_count,
                "model_verified": True,
            }
        )
    return ExperimentResult(
        experiment="table1",
        title="Differentiating benchmark parameters (verified against models)",
        rows=rows,
    )
