"""Batch coalescing and concurrent dispatch across backends and devices.

The scheduler turns many small in-flight requests into few large SLS
operations — the regime where NDP offload pays off (Figures 6-9: the
gap between RecSSD and the COTS baseline grows with lookups per command)
— while keeping *multiple* coalesced batches outstanding so the device
sees genuinely overlapping SLS commands.

Each model owns one or more :class:`ModelWorker` dispatch targets, one
per plan its placement policy returned (:mod:`repro.serving.sharding`):
a whole-model replica per attached SSD, with coalesced batches
round-robin across them, or one worker whose stage holds table pieces on
several devices, so each batch *scatters* to them and the partial sums
*gather* host-side.  The scheduler sees neither difference: every worker
holds an :class:`~repro.embedding.stage.EmbeddingStage`, and
:meth:`BatchScheduler._batch_done` credits
:class:`~repro.serving.stats.ServingStats` in one pass over the pieces
in the result's ``per_shard``.
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

import numpy as np

from ..core.bags import Bags
from ..embedding.stage import EmbeddingStage, EmbStageResult
from ..models.base import RecModel
from .queue import RequestQueue
from .request import InferenceRequest, RequestState
from .stats import ServingStats

if TYPE_CHECKING:
    from .server import ServingConfig

__all__ = ["ModelWorker", "BatchScheduler"]

# name -> (row_lo, row_hi) of one request inside a coalesced stage batch
Spans = Dict[str, Tuple[int, int]]


class ModelWorker:
    """One dispatch target: the stage holding one plan's pieces of a
    model, and the batches it has outstanding."""

    def __init__(self, model: RecModel, stage: EmbeddingStage):
        self.model = model
        self.stage = stage
        self.inflight_batches = 0
        self.batches_done = 0

    def __repr__(self) -> str:
        return (
            f"ModelWorker({self.model.name}, shards={list(self.stage.by_shard)}, "
            f"inflight={self.inflight_batches})"
        )


class BatchScheduler:
    """Drains the request queue into coalesced, concurrently dispatched batches.

    ``on_batch_done(requests)`` fires when a coalesced batch's embedding
    stage finishes and every member request's result rows have been
    scattered back; the server runs the dense stage and completion from
    there.
    """

    def __init__(
        self,
        sim,
        queue: RequestQueue,
        workers: Dict[str, List[ModelWorker]],
        stats: ServingStats,
        config: ServingConfig,
        on_batch_done: Callable[[List[InferenceRequest]], None],
        on_expired: Callable[[InferenceRequest], bool] | None = None,
        host_sls=None,
    ):
        self.sim = sim
        self.queue = queue
        self.workers = workers
        self.stats = stats
        # Reads max_batch_requests and the two max_inflight_batches_*
        # bounds; the SLS bound lives only in the ``host_sls`` pool.
        self.config = config
        self.on_batch_done = on_batch_done
        # QoS hook (deadline-aware early drop): inspects each request as
        # it is popped for dispatch; returning True means the callback
        # consumed it (dropped + slot released) — see RequestQueue.pop_batch.
        self.on_expired = on_expired
        # Host SLS worker pool (repro.serving.hostpool.HostSlsPool) the
        # dispatched batches' table ops run on; dispatch requires a free
        # worker.  None (or an unbounded pool) never gates.
        self.host_sls = host_sls
        self.inflight_batches_total = 0
        self._rr_worker: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _free_worker(self, model: str) -> ModelWorker | None:
        """The model's next worker (round-robin) with a free batch slot."""
        pool = self.workers.get(model)
        if not pool:
            raise KeyError(f"no workers registered for model {model!r}")
        start = self._rr_worker.get(model, 0)
        for i in range(len(pool)):
            worker = pool[(start + i) % len(pool)]
            if worker.inflight_batches < self.config.max_inflight_batches_per_worker:
                self._rr_worker[model] = (start + i + 1) % len(pool)
                return worker
        return None

    # ------------------------------------------------------------------
    def pump(self) -> None:
        """Dispatch queued work while some ready lane has a free worker."""
        while True:
            total_cap = self.config.max_inflight_batches_total
            if total_cap is not None and self.inflight_batches_total >= total_cap:
                return
            # Dispatch acquires host SLS capacity: a batch's per-table
            # ops run on the host SLS worker pool, so dispatching with
            # every worker busy would only grow the pool's op queue.
            # Freed workers re-pump via the pool's on_free hook.
            if self.host_sls is not None and not self.host_sls.has_free:
                return
            # One scan doubles as readiness check and worker selection;
            # next_model stops at the first lane whose pool has capacity.
            found: Dict[str, ModelWorker] = {}

            def ready(model: str) -> bool:
                worker = self._free_worker(model)
                if worker is None:
                    return False
                found[model] = worker
                return True

            model = self.queue.next_model(ready)
            if model is None:
                return
            requests = self.queue.pop_batch(
                model, self.config.max_batch_requests, on_expired=self.on_expired
            )
            if not requests:
                # Deadline drops can consume the whole lane; other lanes
                # may still have dispatchable work this round.
                continue
            self._dispatch(found[model], requests)

    # ------------------------------------------------------------------
    def _dispatch(self, worker: ModelWorker, requests: List[InferenceRequest]) -> None:
        now = self.sim.now
        for request in requests:
            request.state = RequestState.DISPATCHED
            request.t_dispatch = now
        # Coalesce: per table, the requests' bags end to end; each request
        # keeps the (lo, hi) bag rows that are its own.  One request is
        # the common case and its Bags pass through as they are.
        merged: Dict[str, Bags] = {}
        spans: List[Spans] = [{} for _ in requests]
        for feature in worker.model.features:
            name = feature.name
            parts = [request.batch.bags[name] for request in requests]
            merged[name] = Bags.concat(parts)
            lo = 0
            for span, part in zip(spans, parts):
                span[name] = (lo, lo + len(part))
                lo += len(part)
        self.stats.record_dispatch(requests)
        worker.inflight_batches += 1
        self.inflight_batches_total += 1
        tracer = self.sim.tracer
        batch_span = None
        if tracer is not None:
            # One span per coalesced dispatch; requests link back to it
            # via ``batch_sid`` (fan-in causality: one device batch, many
            # requests).  Pushed for the synchronous stage.start call so
            # the shard scatter / backend op spans parent under it.
            batch_span = tracer.begin(
                "batch",
                model=worker.model.name,
                requests=[r.request_id for r in requests],
                size=sum(r.batch.batch_size for r in requests),
            )
            for request in requests:
                request.obs_batch = batch_span
            tracer.push(batch_span)
        worker.stage.start(
            merged,
            lambda result: self._batch_done(
                worker, requests, spans, result, batch_span
            ),
        )
        if tracer is not None:
            tracer.pop()

    def _batch_done(
        self,
        worker: ModelWorker,
        requests: List[InferenceRequest],
        spans: List[Spans],
        result: EmbStageResult,
        batch_span=None,
    ) -> None:
        worker.inflight_batches -= 1
        self.inflight_batches_total -= 1
        worker.batches_done += 1
        now = self.sim.now
        if batch_span is not None and self.sim.tracer is not None:
            self.sim.tracer.end(batch_span)
        # One pass over the pieces that ran: each shard's work is
        # credited to the device that did it, and the fault counters
        # (all-zero under healthy operation — no counter moves then) are
        # folded in on the way.
        stats = self.stats
        model = worker.model.name
        lost_rows = lost_pages = fallbacks = 0.0
        for shard, pieces in result.per_shard.items():
            lookups = cache_hits = 0.0
            first, last = inf, -inf
            for op in pieces.values():
                op_stats = op.stats
                lookups += op_stats.get("lookups", 0.0)
                # Every cache layer a backend reports: host LRU (ssd),
                # device emb-cache + host partition (ndp).
                cache_hits += (
                    op_stats.get("cache_hits", 0.0)
                    + op_stats.get("emb_cache_hits", 0.0)
                    + op_stats.get("partition_hits", 0.0)
                )
                lost_rows += op_stats.get("uncorrectable_rows", 0.0)
                lost_pages += op_stats.get("uncorrectable_pages", 0.0)
                fallbacks += op_stats.get("ndp_fallback", 0.0)
                if op.start_time < first:
                    first = op.start_time
                if op.end_time > last:
                    last = op.end_time
            stats.record_shard_work(
                model, shard, lookups, len(pieces), last - first, cache_hits
            )
        if lost_rows:
            stats.uncorrectable_rows += lost_rows
        if lost_pages:
            stats.uncorrectable_pages += lost_pages
        if fallbacks:
            stats.ndp_fallbacks += int(fallbacks)
        missing = result.missing_by_table
        for request, span in zip(requests, spans):
            request.t_emb_done = now
            request.values = {
                name: result.values[name][lo:hi] for name, (lo, hi) in span.items()
            }
            if missing:
                # Graceful degradation: map the stage's missing batch-bag
                # indices back through this request's spans so quality
                # loss is attributed per request, not per batch.
                lost = 0
                for name, (lo, hi) in span.items():
                    ids = missing.get(name)
                    if ids is not None and len(ids):
                        lost += int(np.count_nonzero((ids >= lo) & (ids < hi)))
                if lost:
                    request.degraded = True
                    request.missing_bags += lost
        self.on_batch_done(requests)
        # A batch slot just freed; pull in whatever queued behind it.
        self.pump()
