"""Multi-table embedding stage: one batch of lookups over placed table pieces.

End-to-end models look up many tables per batch; the paper overlaps the
per-table SLS operations using a pool of SLS workers matched to the
driver's IO queues.  The stage issues every operation of a batch
concurrently (the simulated driver/device provide the real contention)
and completes when the last one finishes.

Where a table lives is data.  A *piece* is one table — whole, or one row
shard of it — behind one backend on one shard (an attached SSD, or host
DRAM).  A model on one device, a whole-model replica, tables spread over
devices and rows spread over devices are the same stage holding
different pieces:

* **scatter** — only a table with a row mapping is split: its
  :class:`~repro.core.bags.Bags` become per-shard ``Bags`` of
  shard-local ids (:func:`scatter_bags`); a whole table's go to its one
  piece as they are;
* **launch** — one loop for every piece: a piece whose device is
  fail-stopped (``backend.available``) is skipped and the bags that lost
  lookups are recorded, the rest each hold one host SLS worker from
  launch to completion;
* **gather** — a whole table's result passes through untouched, row
  shards' partial sums add in ascending shard order.  A stage holding
  pieces on more than one shard pays for that on the host: the merge
  must win an SLS worker too, and ``shard.job`` / ``shard.merge`` spans
  show the fan-out in a trace.

What a batch keeps while in flight is one :class:`_Batch` record and one
:class:`_Piece` record per launched operation, whose bound methods are
the callbacks (the per-unit rule of ``tests/test_layering.py``).  The
batch counts its pieces down and never points at them: a piece holds its
batch, and a link back would be a cycle per batch for the collector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Tuple

import numpy as np

from ..core.bags import Bags, BagsLike
from ..core.vecops import group_slices
from ..sim.stats import Breakdown
from .backends.base import SlsBackend, SlsOpResult

__all__ = ["EmbStageResult", "EmbeddingStage", "scatter_bags"]


@dataclass
class EmbStageResult:
    """One embedding stage's output: per-table pooled values + accounting.

    ``values``/``per_table`` hold the gathered (full) result per table;
    ``per_shard`` maps shard index -> table name -> the
    :class:`SlsOpResult` of the piece that ran there for this batch.
    """

    values: Dict[str, np.ndarray]
    per_table: Dict[str, SlsOpResult]
    start_time: float
    end_time: float
    per_shard: Dict[int, Dict[str, SlsOpResult]] = field(default_factory=dict)
    # Graceful degradation: table name -> sorted batch-bag indices whose
    # lookups were skipped because their piece's device is down;
    # ``values`` holds partial sums (zeros for a whole table) for them.
    missing_by_table: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.end_time - self.start_time


def scatter_bags(bags: BagsLike, mapping) -> Dict[int, Bags]:
    """Split per-result bags into shard-local per-result bags.

    ``mapping`` answers ``shard_of(ids)`` and ``local_ids(ids)`` (a
    :class:`~repro.serving.sharding.ModuloRowMapping`).  Returns only the
    shards that received at least one lookup; each shard's value is
    ``len(bags)`` bags of *shard-local* ids (possibly empty bags), in the
    same order, so a shard's partial SLS lines up row-for-row with the
    merged result.  One vectorized pass over the flat ids: group by
    owning shard (:func:`~repro.core.vecops.group_slices` — stable, so
    within a shard the bag order and intra-bag id order are preserved),
    remap to local ids, and :meth:`Bags.select` each shard's members.
    """
    bags = Bags.of(bags)
    rows = bags.ids
    if rows.size == 0:
        return {}
    uniq, order, bounds = group_slices(mapping.shard_of(rows))
    local = Bags(mapping.local_ids(rows), bags.offsets, bags.rids)
    edges = bounds.tolist()
    return {
        shard: local.select(order[lo:hi])  # ascending positions
        for shard, lo, hi in zip(uniq.tolist(), edges, edges[1:])
    }


@dataclass(slots=True, eq=False)
class _Batch:
    """One batch in flight: pieces count down, then the gather."""

    stage: "EmbeddingStage"
    pool: Any  # the stage's sls_pool, as it was when the batch started
    tracer: Any  # the simulator's, when this stage's fan-out is traced
    bags_by_table: Mapping[str, Bags]
    on_done: Callable[[EmbStageResult], None]
    start: float
    per_shard: Dict[int, Dict[str, SlsOpResult]]
    missing_by_table: Dict[str, np.ndarray]
    pending: int = 0
    merge_span: Any = None

    def piece_done(self, shard: int, name: str, result: SlsOpResult) -> None:
        ran = self.per_shard.get(shard)
        if ran is None:
            ran = self.per_shard[shard] = {}
        ran[name] = result
        self.pending -= 1
        if not self.pending:
            self.gather()

    def gather(self) -> None:
        # The host-side merge of a fan-out is host SLS work too: with a
        # pool it must win a worker (queueing-only, zero service time)
        # before the partial sums merge and the batch finishes.
        if self.pool is None or not self.stage.gathers:
            self.finish()
            return
        if self.tracer is not None:
            self.merge_span = self.tracer.begin("shard.merge")
        self.pool.acquire(self.merge_granted)

    def merge_granted(self) -> None:
        if self.merge_span is not None:
            self.tracer.end(self.merge_span)
        self.pool.release()
        self.finish()

    def finish(self) -> None:
        stage = self.stage
        values: Dict[str, np.ndarray] = {}
        per_table: Dict[str, SlsOpResult] = {}
        for name, bags in self.bags_by_table.items():
            result = stage.gathered(name, len(bags), self.per_shard)
            per_table[name] = result
            values[name] = result.values
        self.on_done(
            EmbStageResult(
                values=values,
                per_table=per_table,
                start_time=self.start,
                end_time=stage.sim.now,
                per_shard=self.per_shard,
                missing_by_table=self.missing_by_table,
            )
        )


@dataclass(slots=True, eq=False)
class _Piece:
    """One launched (shard, table) operation of a batch."""

    batch: _Batch
    shard: int
    name: str
    backend: SlsBackend
    bags: Bags
    span: Any = None

    def launch(self) -> None:
        # The ``shard.job`` span is pushed around the backend launch so
        # the backend's ``sls_op`` span parents under it.
        if self.span is None:
            self.backend.start(self.bags, self.done)
            return
        tracer = self.batch.tracer
        tracer.push(self.span)
        self.backend.start(self.bags, self.done)
        tracer.pop()

    def done(self, result: SlsOpResult) -> None:
        batch = self.batch
        if batch.pool is not None:
            batch.pool.release()
        if self.span is not None:
            batch.tracer.end(self.span)
        batch.piece_done(self.shard, self.name, result)


class EmbeddingStage:
    """Runs one batch of lookups across all placed pieces of a model.

    ``backends`` maps shard -> table name -> the backend serving that
    table's piece there; a flat table name -> backend map is the
    spelling of "every table whole on shard 0".  ``mappings`` names the
    row-split tables (table name -> row mapping); every other table is
    whole on exactly one shard.

    ``sls_pool`` (optional — any object with the
    :class:`repro.serving.hostpool.HostSlsPool` ``acquire``/``release``
    contract) bounds how many operations the host drives concurrently:
    each launched piece holds one pool worker from launch to completion,
    and so does the merge of a stage that gathers from more than one
    shard.  ``None`` (default) is free overlap — everything launches
    immediately.
    """

    def __init__(self, backends: Mapping, sls_pool=None, mappings=None):
        if not all(isinstance(key, int) for key in backends):
            backends = {0: backends}
        self.by_shard: Dict[int, Dict[str, SlsBackend]] = {
            shard: dict(by_table)
            for shard, by_table in sorted(backends.items())
            if by_table
        }
        if not self.by_shard:
            raise ValueError("need at least one table backend")
        self.sls_pool = sls_pool
        self.mappings = dict(mappings or {})
        # table name -> the shards holding a piece of it, ascending.
        self.homes: Dict[str, Tuple[int, ...]] = {}
        for shard, by_table in self.by_shard.items():
            for name in by_table:
                self.homes[name] = self.homes.get(name, ()) + (shard,)
        for name, shards in self.homes.items():
            if len(shards) > 1 and name not in self.mappings:
                raise ValueError(
                    f"table {name!r} has pieces on shards {shards} but no "
                    f"row mapping"
                )
        sims = {id(backend.system.sim): backend.system.sim for backend in self.backends()}
        if len(sims) != 1:
            raise ValueError("all backends must share one simulator")
        (self.sim,) = sims.values()
        self.gathers = len(self.by_shard) > 1

    def backends(self) -> Iterator[SlsBackend]:
        """Every piece's backend, shard by shard."""
        for by_table in self.by_shard.values():
            yield from by_table.values()

    def route(self, name: str, rows: np.ndarray) -> Iterator[Tuple[SlsBackend, np.ndarray]]:
        """Yield ``(backend, local_rows)`` for every piece of table
        ``name`` that holds any of the global ``rows``."""
        mapping = self.mappings.get(name)
        if mapping is None:
            yield self.by_shard[self.homes[name][0]][name], rows
            return
        shard_of = mapping.shard_of(rows)
        for shard in self.homes[name]:
            sel = rows[shard_of == shard]
            if sel.size:
                yield self.by_shard[shard][name], mapping.local_ids(sel)

    # ------------------------------------------------------------------
    def start(
        self,
        bags_by_table: Mapping[str, BagsLike],
        on_done: Callable[[EmbStageResult], None],
    ) -> None:
        if not bags_by_table.keys() <= self.homes.keys():
            unknown = set(bags_by_table) - set(self.homes)
            raise KeyError(f"no backend for tables {sorted(unknown)}")
        # The one conversion on this path (a ``Bags`` passes through).
        bags_by_table = {name: Bags.of(bags) for name, bags in bags_by_table.items()}
        sim = self.sim
        pool = self.sls_pool
        tracer = sim.tracer if self.gathers else None
        batch = _Batch(self, pool, tracer, bags_by_table, on_done, sim.now, {}, {})

        # Scatter.  A piece owed to an unavailable (fail-stopped) device
        # is skipped instead of launched: the batch completes as a
        # partial sum and ``missing_by_table`` says which bags lost
        # lookups — graceful degradation rather than a failed batch.
        launches: List[_Piece] = []
        skipped: Dict[str, List[np.ndarray]] = {}
        for name, bags in bags_by_table.items():
            mapping = self.mappings.get(name)
            if mapping is None:
                subs = ((self.homes[name][0], bags),)
            else:
                subs = scatter_bags(bags, mapping).items()
            for shard, sub in subs:
                backend = self.by_shard[shard][name]
                if backend.available:
                    launches.append(_Piece(batch, shard, name, backend, sub))
                    continue
                lost = np.flatnonzero(np.diff(sub.offsets))
                if lost.size:
                    skipped.setdefault(name, []).append(lost)
        for name, chunks in skipped.items():
            batch.missing_by_table[name] = np.unique(np.concatenate(chunks))

        # Launch.  The count is set first: a backend may finish inline.
        batch.pending = len(launches)
        if not launches:
            sim.call_soon(batch.gather)
            return
        for piece in launches:
            if tracer is not None:
                # Opened at scatter, so a bounded pool's queueing shows
                # inside the span.
                piece.span = tracer.begin(
                    "shard.job", shard=piece.shard, table=piece.name
                )
            if pool is None:
                piece.launch()
            else:
                pool.acquire(piece.launch)

    def gathered(
        self, name: str, n_bags: int, per_shard: Dict[int, Dict[str, SlsOpResult]]
    ) -> SlsOpResult:
        """One table's result from the pieces that ran for a batch.

        A whole table's piece passes through untouched (bit-identical to
        the op alone).  Row-shard partials add in ascending shard order —
        deterministic, but a different float32 accumulation order than
        the unsplit sum: equal up to summation order.  A table none of
        whose pieces ran is all zeros.
        """
        homes = self.homes[name]
        if name not in self.mappings:
            ran = per_shard.get(homes[0])
            if ran is not None and name in ran:
                return ran[name]
        partials = [
            per_shard[shard][name]
            for shard in homes
            if name in per_shard.get(shard, ())
        ]
        dim = self.by_shard[homes[0]][name].table.spec.dim
        values = np.zeros((n_bags, dim), dtype=np.float32)
        breakdown = Breakdown()
        stats: Dict[str, float] = {}
        now = self.sim.now
        for result in partials:
            values += result.values
            breakdown.merge(result.breakdown)
            for key, value in result.stats.items():
                stats[key] = stats.get(key, 0.0) + value
        stats["shards"] = float(len(partials))
        return SlsOpResult(
            values=values,
            start_time=min((r.start_time for r in partials), default=now),
            end_time=max((r.end_time for r in partials), default=now),
            breakdown=breakdown,
            stats=stats,
        )

    def run_sync(self, bags_by_table: Mapping[str, BagsLike]) -> EmbStageResult:
        box: List[EmbStageResult] = []
        self.start(bags_by_table, box.append)
        self.sim.run_until(lambda: bool(box))
        return box[0]
