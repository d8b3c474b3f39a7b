"""Experiment scaffolding: results, text tables, locality samplers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..models.base import IndexSampler, RecModel
from ..traces.locality import LocalityTraceGenerator

__all__ = [
    "ExperimentResult",
    "render_table",
    "format_cell",
    "locality_samplers",
    "speedup",
    "assert_policy_equivalence",
]


def assert_policy_equivalence(
    make_model: Callable[[], RecModel],
    make_server: Callable[[RecModel, str], object],
    policy_names: Sequence[str],
    batch_size: int = 4,
    seed: int = 17,
    rtol: float = 1e-4,
    atol: float = 1e-5,
) -> None:
    """Push one fixed batch through every sharding policy; pooled sums
    must agree (up to float32 accumulation order).

    Shared by ``experiments/ext_multi_ssd.py`` and
    ``benchmarks/bench_sharding.py`` so the equivalence contract (batch
    shape, tolerance) lives in one place.  ``make_server(model, name)``
    builds a fresh :class:`~repro.serving.InferenceServer` with ``model``
    registered under the named policy.
    """
    rng = np.random.default_rng(seed)
    batch = make_model().sample_batch(rng, batch_size)
    reference = None
    for policy_name in policy_names:
        model = make_model()
        server = make_server(model, policy_name)
        request = server.submit(model.name, batch)
        server.run_until_settled()
        if reference is None:
            reference = request.values
            continue
        for name in reference:
            if not np.allclose(
                request.values[name], reference[name], rtol=rtol, atol=atol
            ):
                raise AssertionError(
                    f"{policy_name} sharding changed pooled results for {name}"
                )


@dataclass
class ExperimentResult:
    experiment: str
    title: str
    rows: List[Dict[str, object]]
    notes: List[str] = field(default_factory=list)

    def to_text(self) -> str:
        header = f"== {self.experiment}: {self.title} =="
        body = render_table(self.rows)
        notes = "".join(f"\nnote: {n}" for n in self.notes)
        return f"{header}\n{body}{notes}"


def format_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def render_table(rows: Sequence[Dict[str, object]]) -> str:
    """Plain-text aligned table over the union of row keys."""
    if not rows:
        return "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    cells = [[format_cell(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) for i, col in enumerate(columns)
    ]
    lines = [
        "  ".join(col.ljust(w) for col, w in zip(columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row_cells in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row_cells, widths)))
    return "\n".join(lines)


def locality_samplers(
    model: RecModel,
    k: float,
    seed: int = 0,
    universe: Optional[int] = 8192,
) -> tuple[Dict[str, IndexSampler], Dict[str, LocalityTraceGenerator]]:
    """Per-table locality-trace samplers for a model (Fig 10 inputs)."""
    generators: Dict[str, LocalityTraceGenerator] = {}
    samplers: Dict[str, IndexSampler] = {}
    for i, feature in enumerate(model.features):
        gen = LocalityTraceGenerator(
            table_rows=feature.spec.rows,
            k=k,
            seed=seed + 31 * i,
            universe=min(universe, feature.spec.rows) if universe else None,
        )
        generators[feature.name] = gen
        samplers[feature.name] = gen.generate
    return samplers, generators


def speedup(baseline_s: float, candidate_s: float) -> float:
    if candidate_s <= 0:
        return float("inf")
    return baseline_s / candidate_s
