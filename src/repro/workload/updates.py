"""Declarative live-update streams for serving scenarios.

An :class:`UpdateStreamSpec` names an embedding *write* workload the way
:class:`~repro.workload.scenario.TenantSpec` names a read workload: a
Poisson batch rate, rows-per-batch, a row-skew shape, and the device
write-scheduling policy.  :class:`UpdateStream` pre-draws every arrival
time, table choice, row id and value from its own seeded RNG — so the
read-side generators' draw order (and therefore the zero-update
timeline) is untouched — and plants one
:meth:`~repro.serving.updates.EmbeddingUpdateEngine.apply_update` call
per batch into the simulator.

A scenario carries a spec in its ``updates`` field, and
:func:`~repro.workload.scenario.run` plants the stream interleaved with
reads on the shared kernel; see ``docs/SERVING.md`` ("Live updates").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from ..params import Count, Int, NonNeg, Pos, PosCount, check_domains, checked
from ..serving.updates import UPDATE_POLICIES, EmbeddingUpdateEngine
from ..traces.powerlaw import ZipfTraceGenerator

__all__ = ["UpdateStreamSpec", "UpdateStream"]


@dataclass(frozen=True)
class UpdateStreamSpec:
    """One scenario's embedding update traffic, as data.

    ``rate`` is update *batches* per simulated second (Poisson gaps),
    ``n_updates`` the total batch count, ``rows_per_update`` how many
    row writes each batch carries.  ``model`` defaults to the
    scenario's first tenant; ``tables`` restricts the batches to a
    subset of that model's tables (default: round-robin over all of
    them via uniform choice).  ``zipf_alpha`` skews which rows are
    rewritten (hot rows retrain most often in production); ``None``
    picks rows uniformly.  ``policy`` / ``min_gap_s`` / ``defer_s`` /
    ``max_defer_s`` configure the device write scheduling
    (:class:`~repro.serving.updates.EmbeddingUpdateEngine`).  The
    stream's RNG is ``scenario seed + seed_offset``, independent of the
    read generators' shared RNG.
    """

    rate: Pos
    n_updates: PosCount
    rows_per_update: PosCount = 8
    model: Optional[str] = None
    tables: Optional[Tuple[str, ...]] = None
    zipf_alpha: Optional[Pos] = None
    policy: str = "interleave"
    min_gap_s: NonNeg = 0.0
    defer_s: Pos = 200e-6
    max_defer_s: NonNeg = 5e-3
    seed_offset: Int = 7919

    def __post_init__(self) -> None:
        check_domains(self)
        if self.policy not in UPDATE_POLICIES:
            raise ValueError(f"policy must be one of {UPDATE_POLICIES}")

    def make_engine(self, servers) -> EmbeddingUpdateEngine:
        return EmbeddingUpdateEngine(
            servers,
            policy=self.policy,
            min_gap_s=self.min_gap_s,
            defer_s=self.defer_s,
            max_defer_s=self.max_defer_s,
        )


class UpdateStream:
    """A fully pre-drawn update schedule bound to one model.

    Construction draws everything (arrival offsets, per-batch table,
    rows, values) up front from ``seed + spec.seed_offset``, so the
    stream is deterministic regardless of how its events interleave
    with read traffic on the simulator.
    """

    @checked
    def __init__(self, spec: UpdateStreamSpec, model, seed: Count = 0):
        self.spec = spec
        self.model_name = model.name
        self.applied = 0
        rng = np.random.default_rng(seed + spec.seed_offset)
        features = {f.name: f for f in model.features}
        table_names = (
            list(spec.tables) if spec.tables is not None else list(features)
        )
        missing = [t for t in table_names if t not in features]
        if missing:
            raise KeyError(
                f"update stream names unknown tables {missing} on model "
                f"{model.name!r}"
            )
        n = spec.n_updates
        gaps = rng.exponential(1.0 / spec.rate, size=n)
        # Sequential accumulation to mirror OpenLoopGenerator's contract.
        self.offsets: List[float] = []
        t = 0.0
        for gap in gaps:
            t += float(gap)
            self.offsets.append(t)
        choices = rng.integers(0, len(table_names), size=n)
        self.tables: List[str] = [table_names[int(c)] for c in choices]
        samplers = {}
        if spec.zipf_alpha is not None:
            for i, name in enumerate(table_names):
                samplers[name] = ZipfTraceGenerator(
                    table_rows=features[name].spec.rows,
                    alpha=spec.zipf_alpha,
                    seed=seed + spec.seed_offset + 31 * i,
                )
        self.rows: List[np.ndarray] = []
        self.values: List[np.ndarray] = []
        for name in self.tables:
            feature_spec = features[name].spec
            if spec.zipf_alpha is not None:
                rows = samplers[name].generate(spec.rows_per_update)
            else:
                rows = rng.integers(
                    0, feature_spec.rows, size=spec.rows_per_update
                ).astype(np.int64)
            values = rng.normal(
                size=(spec.rows_per_update, feature_spec.dim)
            ).astype(np.float32)
            self.rows.append(rows)
            self.values.append(values)

    @property
    def done(self) -> bool:
        """All batches committed (device writes may still be in flight)."""
        return self.applied >= self.spec.n_updates

    def schedule(self, sim, engine: EmbeddingUpdateEngine) -> None:
        """Plant every batch into ``sim`` relative to the current time."""
        base = sim.now
        sim.schedule_series(
            [base + offset for offset in self.offsets],
            partial(self._apply, engine),
            range(len(self.offsets)),
        )

    def _apply(self, engine: EmbeddingUpdateEngine, i: int) -> None:
        engine.apply_update(
            self.model_name, self.tables[i], self.rows[i], self.values[i]
        )
        self.applied += 1
