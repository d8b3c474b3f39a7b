"""Host resource model: bounded dense-stage NN workers and host SLS workers.

The seed serving layer models the host side of the pipeline with two
implicit, free resources, both of which flatter DRAM exactly where
RecNMP (Ke et al.) and the paper's Section 2 say host memory bandwidth
and CPU contention bite:

* **Host SLS workers.**  Per-table DRAM gathers and the host-side NDP
  split/merge all overlap for no cost — the
  :class:`~repro.embedding.stage.EmbeddingStage` launches every table
  piece's SLS op concurrently (the seed's "pool of SLS workers"
  abstraction, with the pool implicitly infinite).  Under heavy serving concurrency a
  real host has a fixed complement of SLS threads; once they are all
  busy, further per-table gathers *queue* instead of overlapping.
* **Dense-stage NN workers.**  The dense tower ran on a single
  serialized host timeline (``_dense_busy_until`` in the server) with no
  queueing visibility: no wait-time breakdown, no utilization, no way to
  study how much embedding work overlaps the dense stage when the pool
  is widened.

This module makes both resources explicit and bounded:

* :class:`HostSlsPool` — a bounded pool of host SLS worker threads.
  Each in-flight per-table SLS operation (a DRAM gather, a COTS-SSD
  read+gather, an NDP split/command/merge) holds one worker from launch
  to completion, the way a synchronous host thread drives one SLS op at
  a time; the host-side merge of a batch whose stage holds pieces on
  more than one shard must also win a worker (queueing-only, zero
  service time) — a replica, or a plan that lands on one shard, has
  nothing to gather and holds none.  ``workers=None`` (default) is an infinite pool: acquisitions
  are granted synchronously and nothing queues — bit-identical to the
  seed's free overlap, gauges aside.
* :class:`DenseWorkerPool` — a pool of ``workers`` dense-stage NN
  workers with FIFO queueing and per-job service times from
  :class:`DenseServiceModel`.  Because service times are known at
  submission and the discipline is FIFO, each job's start/finish can be
  computed closed-form at submit time (a heap of worker-free instants);
  with one worker the arithmetic — ``start = max(now, busy_until)`` —
  reduces *exactly* to the legacy serialized timeline, which is why
  the default of one worker stays bit-identical to the pre-hostpool
  server.  ``dense_workers=0`` means unbounded: every dense job starts
  immediately, the idealized host the seed silently assumed for SLS but
  never offered for dense.
* :class:`DenseServiceModel` — per-model dense service times with
  batch-size scaling: :meth:`~repro.models.base.RecModel.dense_time`
  (already batch-scaled via the host CPU's GEMM model) times an optional
  ``dense_time_scale``, or an explicit per-sample override from
  ``dense_service_s_by_model`` for contention studies.
* :class:`HostResourceModel` — the facade the
  :class:`~repro.serving.server.InferenceServer` owns: builds both pools
  against one :class:`~repro.serving.stats.ServingStats` (which carries
  the wait-time breakdowns and utilization gauges) and summarizes them
  for benchmark reports (``InferenceServer.hostpool_summary()``).

Contention contract (asserted by ``benchmarks/bench_serving_throughput.py``
and ``tests/serving/test_hostpool.py``): at saturation, bounding either
host pool strictly increases tail latency versus the unbounded pool —
the latency-vs-offered-load curves only stay honest at high concurrency
when the host is allowed to run out of workers.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, Dict, Mapping, Optional, Tuple

from ..host.cpu import HostCpu
from ..models.base import RecModel
from ..params import Pos, PosCount, checked
from .stats import ServingStats, mean_ms

__all__ = [
    "DenseServiceModel",
    "HostSlsPool",
    "DenseWorkerPool",
    "HostResourceModel",
]


class DenseServiceModel:
    """Per-model dense-stage service times with batch-size scaling.

    The default is the repo's existing cost model —
    ``model.dense_time(batch_size, host_cpu)``, whose GEMM terms already
    scale with the batch.  ``scale``
    multiplies every service time (a knob for studying dense/embedding
    overlap without rebuilding models); ``service_s_by_model`` maps a
    model name to an explicit *per-sample* service time, scaled linearly
    with batch size, overriding the model's own cost model.
    """

    @checked
    def __init__(
        self,
        host_cpu: HostCpu,
        scale: Pos = 1.0,
        service_s_by_model: Optional[Mapping[str, Pos]] = None,
    ):
        self.host_cpu = host_cpu
        self.scale = scale
        self.service_s_by_model = dict(service_s_by_model or {})

    def service_s(self, model: RecModel, batch_size: int) -> float:
        override = self.service_s_by_model.get(model.name)
        if override is not None:
            return self.scale * override * batch_size
        return self.scale * model.dense_time(batch_size, self.host_cpu)


class HostSlsPool:
    """Bounded pool of host SLS worker threads (``workers=None`` = infinite).

    One worker is held per in-flight per-table SLS operation from launch
    to completion; when all workers are busy, further ``acquire`` calls
    queue FIFO and are granted as releases free workers.  Grants run the
    caller's callback *synchronously* (no simulator event), so an
    infinite pool is a pure pass-through — the embedding stages behave
    bit-identically to the pre-hostpool code while the gauges record.

    Gauges land in :class:`~repro.serving.stats.ServingStats`
    (``sls_ops`` / ``sls_wait_s`` / ``sls_busy_s`` / peaks); live state
    (``in_use``, the wait queue) stays here.  ``on_free`` (wired by the
    server for bounded pools only) lets the
    :class:`~repro.serving.scheduler.BatchScheduler` re-pump when a
    worker frees without a batch having completed.
    """

    @checked
    def __init__(self, sim, workers: Optional[PosCount], stats: ServingStats):
        self.sim = sim
        self.workers = workers
        self.stats = stats
        self.in_use = 0
        self._waiting: Deque[Tuple[float, Callable[[], None]]] = deque()
        # Grant instants of currently-held workers, FIFO-paired at
        # release; any pairing yields the same busy-time *sum*.
        self._held_since: Deque[float] = deque()
        self.on_free: Optional[Callable[[], None]] = None

    @property
    def bounded(self) -> bool:
        return self.workers is not None

    @property
    def has_free(self) -> bool:
        """A worker is free right now (always true for infinite pools)."""
        return self.workers is None or self.in_use < self.workers

    @property
    def queued(self) -> int:
        return len(self._waiting)

    # ------------------------------------------------------------------
    def acquire(self, run: Callable[[], None]) -> None:
        """Run ``run`` under a worker: synchronously if one is free,
        otherwise when one frees (FIFO).  Pair with :meth:`release`."""
        if self.has_free:
            self._grant(run, 0.0)
        else:
            self._waiting.append((self.sim.now, run))
            self.stats.record_sls_queue_depth(len(self._waiting))

    def _grant(self, run: Callable[[], None], wait_s: float) -> None:
        self.in_use += 1
        self._held_since.append(self.sim.now)
        self.stats.record_sls_grant(wait_s, self.in_use)
        run()

    def release(self) -> None:
        """Free one worker; grants the oldest waiter (if any) in place."""
        if self.in_use <= 0:
            raise RuntimeError("HostSlsPool.release without a matching acquire")
        self.in_use -= 1
        self.stats.record_sls_release(self.sim.now - self._held_since.popleft())
        if self._waiting:
            enqueued_at, run = self._waiting.popleft()
            self._grant(run, self.sim.now - enqueued_at)
        elif self.on_free is not None:
            self.on_free()

    def utilization(self, span_s: float) -> float:
        """Busy worker-seconds over ``span_s`` (0.0 for infinite pools)."""
        if self.workers is None or span_s <= 0:
            return 0.0
        return self.stats.sls_busy_s / (span_s * self.workers)

    def __repr__(self) -> str:
        cap = "inf" if self.workers is None else self.workers
        return f"HostSlsPool(workers={cap}, in_use={self.in_use}, queued={self.queued})"


class DenseWorkerPool:
    """``workers`` dense-stage NN workers with FIFO queueing.

    Service times are known at submission (from the
    :class:`DenseServiceModel`) and the discipline is FIFO, so each
    job's start is computed closed-form against a heap of worker-free
    instants — no extra simulator events, and with one worker the exact
    ``max(now, busy_until)`` arithmetic of the legacy serialized dense
    stage (the bit-identity the one-worker default relies on).
    ``workers=None`` is unbounded: every job starts immediately.
    """

    @checked
    def __init__(
        self,
        sim,
        workers: Optional[PosCount],
        stats: ServingStats,
        service_model: DenseServiceModel,
    ):
        self.sim = sim
        self.workers = workers
        self.stats = stats
        self.service_model = service_model
        self._free_at = [0.0] * workers if workers is not None else None

    @property
    def bounded(self) -> bool:
        return self.workers is not None

    def submit(
        self, model: RecModel, batch_size: int, on_done: Callable[[], None]
    ) -> Tuple[float, float]:
        """Queue one dense-stage job; ``on_done`` fires at its finish.

        Returns ``(start, finish)`` simulated times — ``start - now`` is
        the job's dense-worker wait, recorded in the stats breakdowns.
        """
        service_s = self.service_model.service_s(model, batch_size)
        now = self.sim.now
        if self._free_at is None:
            start = now
        else:
            free_at = self._free_at[0]
            start = free_at if free_at > now else now
        finish = start + service_s
        if self._free_at is not None:
            heapq.heapreplace(self._free_at, finish)
        self.stats.record_dense_job(model.name, start - now, service_s)
        self.sim.schedule_at(finish, on_done)
        return start, finish

    def utilization(self, span_s: float) -> float:
        """Busy worker-seconds over ``span_s`` (0.0 for unbounded pools)."""
        if self.workers is None or span_s <= 0:
            return 0.0
        return self.stats.dense_busy_s / (span_s * self.workers)

    def __repr__(self) -> str:
        cap = "inf" if self.workers is None else self.workers
        return f"DenseWorkerPool(workers={cap})"


class HostResourceModel:
    """The server's host-side resources: one SLS pool + one dense pool.

    Knob semantics (mirrored in ``ServingConfig`` / ``ScenarioSpec``):

    * ``host_sls_workers`` — ``None`` (default) keeps the seed's
      infinite overlap of per-table gathers and NDP host split/merge,
      bit-identically; an int bounds the pool.
    * ``dense_workers`` — ``1`` (default) is the legacy single
      serialized host NN timeline, bit-identically (a one-worker pool's
      arithmetic reduces to it); ``k`` is a pool of ``k`` workers; ``0``
      means unbounded (every dense job starts immediately — the
      idealized host, the "∞" point of the contention sweeps).
    * ``dense_time_scale`` / ``dense_service_s_by_model`` — see
      :class:`DenseServiceModel`.
    """

    def __init__(
        self,
        sim,
        stats: ServingStats,
        host_cpu: HostCpu,
        host_sls_workers: Optional[int] = None,
        dense_workers: int = 1,
        dense_time_scale: float = 1.0,
        dense_service_s_by_model: Optional[Mapping[str, float]] = None,
    ):
        self.stats = stats
        self.service_model = DenseServiceModel(
            host_cpu, dense_time_scale, dense_service_s_by_model
        )
        self.sls = HostSlsPool(sim, host_sls_workers, stats)
        # 0 workers is the unbounded pool.
        self.dense = DenseWorkerPool(sim, dense_workers or None, stats, self.service_model)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Capacity, occupancy, wait and utilization per pool (the host
        rows of ``BENCH_serving.json``); utilization is measured over the
        stats window's busy span, like ``throughput_rps``."""
        span = self.stats.busy_span()
        dense_waits = self.stats.dense_wait_s
        return {
            "host_sls": {
                "workers": self.sls.workers,
                "in_use": float(self.sls.in_use),
                "peak_in_use": float(self.stats.sls_peak_in_use),
                "peak_queue": float(self.stats.sls_peak_queue),
                "ops": float(self.stats.sls_ops),
                "busy_s": self.stats.sls_busy_s,
                "mean_wait_ms": mean_ms(self.stats.sls_wait_s),
                "utilization": self.sls.utilization(span),
            },
            "dense": {
                "workers": self.dense.workers,
                "jobs": float(self.stats.dense_jobs),
                "busy_s": self.stats.dense_busy_s,
                "mean_wait_ms": mean_ms(dense_waits),
                "max_wait_ms": max(dense_waits) * 1e3 if dense_waits else 0.0,
                "utilization": self.dense.utilization(span),
            },
        }
