"""Concurrent multi-request serving layer (the ROADMAP's scaling spine).

RecSSD's benefit shows up under concurrent, batched, latency-bounded
load; this package provides the serving front-end that creates that
load shape against the simulated stack:

* :class:`~repro.serving.request.InferenceRequest` — one user request
  (model name + batch) with lifecycle timestamps and an optional SLO
  deadline.
* :class:`~repro.serving.queue.RequestQueue` — admission-bounded
  per-model FIFO lanes with round-robin fairness; an
  :class:`~repro.serving.admission.AdmissionConfig` adds QoS policies
  (deadline-aware early drop, per-model quotas, priority lanes).
* :class:`~repro.serving.scheduler.BatchScheduler` — coalesces queued
  requests into batched SLS operations and keeps several outstanding per
  worker, across one or many attached SSDs.
* :mod:`repro.serving.sharding` — cross-SSD placement policies
  (:class:`~repro.serving.sharding.ReplicatePolicy`,
  :class:`~repro.serving.sharding.TableShardPolicy`,
  :class:`~repro.serving.sharding.RowShardPolicy`): plans, as data,
  of which table piece lives on which device.  The one
  :class:`~repro.embedding.stage.EmbeddingStage` scatters a coalesced
  batch to the pieces, and merges partial sums host-side.
* :mod:`repro.serving.hostpool` — the host resource model: a bounded
  dense-stage NN worker pool and a bounded host SLS worker pool
  (per-table DRAM gathers and NDP host split/merge hold workers instead
  of overlapping for free), each with queueing, wait-time breakdowns
  and utilization gauges.  Defaults are bit-identical to the unbounded
  seed behaviour.
* :class:`~repro.serving.stats.ServingStats` — per-request latency
  percentiles (p50/p95/p99), throughput, goodput (completions within
  deadline), per-lane, per-shard and host-pool work breakdowns.
* :class:`~repro.serving.server.InferenceServer` — ties it together.
  Traffic enters it from :mod:`repro.workload`, the layer above:
  :func:`~repro.workload.run_workload` drives open-loop, closed-loop
  and replayed clients against it, and ``run(setup(spec))`` runs a
  declarative multi-tenant scenario — the paper figures' runs included.

See ``docs/SERVING.md`` for the request lifecycle walkthrough and the
"Workloads & QoS" guide, ``examples/serving_demo.py`` /
``examples/workload_qos_demo.py`` for runnable tours, and
``benchmarks/bench_serving_throughput.py`` /
``benchmarks/bench_sharding.py`` / ``benchmarks/bench_qos.py`` for the
load benchmarks.
"""

from .admission import (
    REASON_CAPACITY,
    REASON_DEADLINE,
    REASON_QUOTA,
    AdmissionConfig,
)
from .hostpool import (
    DenseServiceModel,
    DenseWorkerPool,
    HostResourceModel,
    HostSlsPool,
)
from .queue import RequestQueue
from .request import InferenceRequest, RequestState
from .scheduler import BatchScheduler, ModelWorker
from .server import InferenceServer, ServingConfig
from .sharding import (
    ModuloRowMapping,
    ReplicatePolicy,
    RowShardPolicy,
    ShardingPolicy,
    ShardPlan,
    TablePlacement,
    TableShardPolicy,
)
from .stats import ServingStats
from .updates import EmbeddingUpdateEngine, age_device, make_model_updatable

__all__ = [
    "EmbeddingUpdateEngine",
    "age_device",
    "make_model_updatable",
    "AdmissionConfig",
    "REASON_CAPACITY",
    "REASON_DEADLINE",
    "REASON_QUOTA",
    "InferenceRequest",
    "RequestState",
    "RequestQueue",
    "BatchScheduler",
    "ModelWorker",
    "ServingStats",
    "InferenceServer",
    "ServingConfig",
    "ShardingPolicy",
    "ReplicatePolicy",
    "TableShardPolicy",
    "RowShardPolicy",
    "ShardPlan",
    "TablePlacement",
    "ModuloRowMapping",
    "DenseServiceModel",
    "DenseWorkerPool",
    "HostResourceModel",
    "HostSlsPool",
]
