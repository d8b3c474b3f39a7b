"""The concurrent inference server: queue + scheduler + stats in one front-end.

Usage::

    system = build_system(min_capacity_pages=required_capacity_pages(model),
                          ndp=NdpEngineConfig(queue_when_full=True))
    server = InferenceServer(system)
    server.register_model(model, BackendKind.NDP)
    request = server.submit(model.name, model.sample_batch(rng, batch_size=4))
    server.run_until_settled()
    print(server.stats.summary())

The server accepts many in-flight requests (bounded by
``ServingConfig.max_inflight_requests``), coalesces same-model requests
into batched SLS operations, dispatches them concurrently across the
registered backends and attached SSDs, and runs each request's dense
tower on the (serialized) host NN workers — the serving shape the paper
evaluates, with per-request p50/p95/p99 tracked in :class:`ServingStats`.

``register_model(..., num_workers=N, sharding=policy)`` spreads one
model over N SSDs.  The policy (:mod:`repro.serving.sharding`) returns
placement plans — N whole-model replicas by default, or one plan of
table/row pieces across the devices — and registration walks every plan
through the same path into the same
:class:`~repro.embedding.stage.EmbeddingStage`: a coalesced batch goes
to the pieces its worker's stage holds, and partial sums gather
host-side where there are any.  The full lifecycle and knobs are
documented in ``docs/SERVING.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..embedding.backends.base import SlsBackend
from ..embedding.spec import Layout
from ..embedding.stage import EmbeddingStage
from ..embedding.table import TablePageContent
from ..host.system import System
from ..models.base import Batch, RecModel
from ..models.runner import BackendKind, RunnerConfig, build_backends
from ..params import Count, Pos, PosCount, check_domains, checked
from .admission import REASON_DEADLINE, AdmissionConfig
from .hostpool import HostResourceModel
from .queue import RequestQueue
from .request import InferenceRequest, RequestState
from .scheduler import BatchScheduler, ModelWorker
from .sharding import ReplicatePolicy, ShardingPolicy
from .stats import ServingStats

__all__ = ["ServingConfig", "InferenceServer"]


@dataclass(frozen=True)
class ServingConfig:
    # Admission limit: requests in flight (queued + dispatched) across
    # all models; arrivals beyond it are rejected.
    max_inflight_requests: PosCount = 64
    # Most requests coalesced into one batched SLS op per table.
    max_batch_requests: PosCount = 8
    # Coalesced batches a single worker keeps outstanding.  >=2 keeps the
    # device busy while a finished batch's results post-process.
    max_inflight_batches_per_worker: PosCount = 2
    # Global cap on concurrently dispatched batches across all models (a
    # bounded host dispatch pool); None = per-worker limits only.  Freed
    # slots are re-awarded priority-class-first, so QoS priority lanes
    # need a cap (or another shared constraint) to arbitrate.
    max_inflight_batches_total: Optional[PosCount] = None
    # Run the model's dense tower after the embedding stage (on the host
    # NN worker pool, as in the inference pipeline).
    dense_stage: bool = True
    # Numerically compute model outputs (costs host wall-clock, not
    # simulated time; enable for correctness checks).
    compute_outputs: bool = False
    # QoS admission policy (deadline-aware early drop, per-model quotas,
    # priority lanes).  None keeps the seed's reject-at-limit behaviour.
    admission: Optional[AdmissionConfig] = None
    # Host resource model (repro.serving.hostpool).  host_sls_workers
    # bounds concurrent per-table SLS ops (DRAM gathers, NDP host
    # split/merge) on a shared host worker pool; None (default) keeps
    # the seed's infinite overlap bit-identically.  dense_workers sizes
    # the dense-stage NN worker pool: one (default) is the serialized
    # host NN timeline, k is a pool of k workers, 0 means unbounded
    # (every dense job starts immediately — the "∞" point of
    # host-contention sweeps).
    host_sls_workers: Optional[PosCount] = None
    dense_workers: Count = 1
    # Dense service-time model: a global multiplier on each model's
    # dense_time(), and optional per-sample overrides by model name
    # (scaled linearly with batch size) for contention studies.
    dense_time_scale: Pos = 1.0
    dense_service_s_by_model: Optional[Dict[str, Pos]] = None

    __post_init__ = check_domains


class InferenceServer:
    """Serves concurrent inference requests for one or more registered models."""

    def __init__(
        self,
        system: System,
        config: Optional[ServingConfig] = None,
        name: str = "host0",
    ):
        # ``name`` makes the server an addressable node: repro.cluster
        # runs many servers (each with its own system/SSDs/caches) on one
        # shared sim kernel behind front-end routers and keys per-host
        # stats by this name.  Standalone use never needs it.
        self.name = name
        self.system = system
        self.config = config or ServingConfig()
        self.sim = system.sim
        self.stats = ServingStats(self.sim)
        # Who records this host's arrivals and terminal transitions: its
        # own window, plus the fleet's ClusterStats once it joins a cluster.
        self.recorders = [self.stats]
        self.admission = self.config.admission or AdmissionConfig()
        self.queue = RequestQueue(
            self.config.max_inflight_requests, admission=self.admission
        )
        self.models: Dict[str, RecModel] = {}
        # model -> table -> result rows per sample: what ``submit`` holds
        # a batch's tables and bag counts to.
        self._bags_per_sample: Dict[str, Dict[str, int]] = {}
        self.workers: Dict[str, List[ModelWorker]] = {}
        # Host resource model: the bounded (or pass-through) host SLS
        # worker pool the embedding stages run per-table ops on, and the
        # dense-stage NN worker pool completions queue for.
        self.hostpool = HostResourceModel(
            self.sim,
            self.stats,
            system.host_cpu,
            host_sls_workers=self.config.host_sls_workers,
            dense_workers=self.config.dense_workers,
            dense_time_scale=self.config.dense_time_scale,
            dense_service_s_by_model=self.config.dense_service_s_by_model,
        )
        self.scheduler = BatchScheduler(
            self.sim,
            self.queue,
            self.workers,
            self.stats,
            self.config,
            on_batch_done=self._batch_done,
            on_expired=(
                self._drop_if_expired if self.admission.deadline_drop else None
            ),
            host_sls=self.hostpool.sls,
        )
        if self.hostpool.sls.bounded:
            # A freed SLS worker can unblock a gated dispatch before any
            # batch completes; unbounded pools never gate, so no hook.
            self.hostpool.sls.on_free = self.scheduler.pump
        self._next_request_id = 1
        # Projected worst-case concurrent NDP entries per device, used to
        # validate registrations against the engine's buffer config.
        self._projected_ndp_entries: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Model registration
    # ------------------------------------------------------------------
    @checked
    def register_model(
        self,
        model: RecModel,
        kind: BackendKind,
        runner_config: Optional[RunnerConfig] = None,
        num_workers: PosCount = 1,
        partition_profiles=None,
        sharding: Optional[ShardingPolicy] = None,
    ) -> List[ModelWorker]:
        """Wire ``model``'s tables to ``kind`` backends and accept its traffic.

        ``num_workers`` > 1 spreads the model across that many attached
        SSDs (devices are added to the system as needed).  ``sharding``
        decides where each table piece lives, as
        :class:`~repro.serving.sharding.ShardPlan` data; every plan
        becomes one :class:`ModelWorker` through the same steps:

        * ``None`` or :class:`~repro.serving.sharding.ReplicatePolicy`
          (the default) — one plan per device, each placing every table
          whole there: whole-model replicas, coalesced batches
          round-robin across them.  Replicas share the primary tables'
          data source, so results are identical.  DRAM backends ignore
          the device count but still gain concurrent dispatch slots per
          extra worker.
        * :class:`~repro.serving.sharding.TableShardPolicy` /
          :class:`~repro.serving.sharding.RowShardPolicy` — one plan:
          tables (or rows of large tables) are partitioned across the
          devices, every coalesced batch fans out to the devices owning
          its table pieces and the partial sums merge host-side.  See
          ``docs/SERVING.md``.
        """
        if model.name in self.models:
            raise ValueError(f"model {model.name!r} already registered")
        config = runner_config or RunnerConfig(kind=kind)
        if config.kind is not kind:
            raise ValueError("runner_config.kind must match kind")
        plans = (sharding or ReplicatePolicy()).plans(model, num_workers)
        features_by_name = {f.name: f for f in model.features}
        for plan in plans:
            plan.validate(list(features_by_name))
        # Validate everything up front: a rejected registration must not
        # leave added devices, attached replicas or inflated projections
        # behind (devices added by add_device cannot be removed again).
        pending_entries: Dict[int, int] = {}  # device index -> increment
        if kind is BackendKind.NDP:
            for plan in plans:
                for shard in range(plan.num_shards):
                    pieces = len(plan.tables_on(shard))
                    if pieces:
                        self._check_ndp_capacity(
                            model, shard, pending_entries, pieces
                        )
            if config.partition_entries > 0:
                row_split = {name for plan in plans for name in plan.mappings()}
                for feature in model.features:
                    if feature.name in row_split:
                        raise ValueError(
                            f"partition_entries is not supported for "
                            f"row-sharded tables ({feature.name!r}); use "
                            f"TableShardPolicy or drop the partition"
                        )
                    if (partition_profiles or {}).get(feature.name) is None:
                        raise ValueError(
                            f"partition requested but no profile for "
                            f"{feature.name}"
                        )
        # The primary table instance goes to a table's first whole
        # placement (results stay bit-identical to one device); later
        # whole placements get replicas, which share its data source.
        primary_placed = set()
        pool: List[ModelWorker] = []
        for plan in plans:
            by_shard: Dict[int, Dict[str, SlsBackend]] = {}
            for shard in range(plan.num_shards):
                names = plan.tables_on(shard)
                if not names:
                    continue
                tables = {}
                for name in names:
                    mapping = plan.placements[name].mapping
                    if mapping is not None:
                        tables[name] = model.tables[name].row_shard(
                            mapping.global_ids(shard), shard
                        )
                    elif name in primary_placed:
                        tables[name] = model.tables[name].replica()
                    else:
                        primary_placed.add(name)
                        tables[name] = model.tables[name]
                by_shard[shard] = build_backends(
                    model,
                    config,
                    self.system,
                    # DRAM backends sit on no device: a shard is only a
                    # dispatch slot and a stats key for them.
                    device=(
                        None
                        if kind is BackendKind.DRAM
                        else self._device_for_shard(shard)
                    ),
                    tables=tables,
                    partition_profiles=partition_profiles,
                    features=[features_by_name[name] for name in names],
                )
            stage = EmbeddingStage(
                by_shard, sls_pool=self.hostpool.sls, mappings=plan.mappings()
            )
            pool.append(ModelWorker(model, stage))
        if config.prewarm_page_cache and kind is not BackendKind.DRAM:
            self._prewarm_page_caches(pool)
        for index, count in pending_entries.items():
            self._projected_ndp_entries[index] = (
                self._projected_ndp_entries.get(index, 0) + count
            )
        self.models[model.name] = model
        self._bags_per_sample[model.name] = {
            f.name: f.bags_per_sample for f in model.features
        }
        self.workers[model.name] = pool
        return pool

    @staticmethod
    def _prewarm_page_caches(pool: List[ModelWorker]) -> None:
        """Fill each device's page cache with its PACKED pieces that fit."""
        caches = {}
        for worker in pool:
            for backend in worker.stage.backends():
                table = backend.table
                ftl = table.device.ftl
                cache = caches.setdefault(id(ftl), ftl.page_cache)
                if table.spec.layout is not Layout.PACKED:
                    continue
                n_pages = table.spec.table_pages(table.page_bytes)
                if n_pages > cache.capacity - cache.size:
                    continue
                base_lpn = table.base_lba // ftl.lbas_per_page
                for page_index in range(n_pages):
                    cache.insert(base_lpn + page_index, TablePageContent(table, page_index))
        for cache in caches.values():
            cache.reset_stats()

    def _device_for_shard(self, index: int):
        """The ``index``-th attached SSD, adding clones of the primary's
        config until it exists."""
        while index >= len(self.system.devices):
            self.system.add_device(self.system.device.config)
        return self.system.devices[index]

    def _check_ndp_capacity(
        self,
        model: RecModel,
        device_index: int,
        pending_entries: Dict[int, int],
        tables_per_batch: int,
    ) -> None:
        """Fail registration, not serving, when the NDP buffer can overflow.

        Once the entry buffer fills, the engine rejects config writes —
        immediately without ``queue_when_full``, or past the
        ``max_queued_configs`` hold limit with it — and a rejection
        surfaces as a hard :class:`~repro.driver.ndp.NdpError` mid-run.
        The scheduler keeps at most ``max_inflight_batches_per_worker``
        batches outstanding per worker; each batch puts one SLS op per
        table *piece* on the device — ``tables_per_batch``, the pieces
        one plan places there (all the model's tables for a replica).
        Refuse registrations that could exceed the device's capacity.  Projections are keyed by
        device index (the device may not exist yet; ones added later
        clone the primary's config); increments accumulate in
        ``pending_entries`` and are committed by the caller on success.
        """
        if device_index < len(self.system.devices):
            device_config = self.system.devices[device_index].config
        else:
            device_config = self.system.device.config
        engine_config = device_config.ndp
        pending_entries[device_index] = pending_entries.get(
            device_index, 0
        ) + tables_per_batch * self.config.max_inflight_batches_per_worker
        projected = (
            self._projected_ndp_entries.get(device_index, 0)
            + pending_entries[device_index]
        )
        capacity = engine_config.max_entries
        if engine_config.queue_when_full:
            capacity += engine_config.max_queued_configs
        if projected > capacity:
            hint = (
                "raise NdpEngineConfig.max_queued_configs"
                if engine_config.queue_when_full
                else "build the system with NdpEngineConfig(queue_when_full=True)"
            )
            raise ValueError(
                f"model {model.name!r} could put {projected} concurrent SLS "
                f"requests on one device but it accepts at most {capacity} "
                f"before rejecting; {hint} or lower "
                f"max_inflight_batches_per_worker"
            )
        # Each concurrent SLS op also needs a request id inside the SLBA
        # alignment window and (config write + result read) command slots
        # below the driver's aggregate queue depth; exceeding either dies
        # mid-run (NdpError / heap-drain) rather than rejecting cleanly.
        rid_window = device_config.slba_alignment_lbas - 1
        if projected > rid_window:
            raise ValueError(
                f"model {model.name!r} could put {projected} concurrent SLS "
                f"requests on one device but its SLBA codec has only "
                f"{rid_window} request ids; raise slba_alignment_lbas or "
                f"lower max_inflight_batches_per_worker"
            )
        driver_config = self.system.config.driver
        aggregate_depth = driver_config.num_qpairs * driver_config.queue_depth
        if 2 * projected > aggregate_depth:
            raise ValueError(
                f"model {model.name!r} could keep {2 * projected} NDP "
                f"commands outstanding on one device but the driver's "
                f"aggregate queue depth is {aggregate_depth}; raise "
                f"DriverConfig num_qpairs/queue_depth or lower "
                f"max_inflight_batches_per_worker"
            )

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def submit(
        self,
        model_name: str,
        batch: Batch,
        on_done=None,
        deadline: Optional[float] = None,
    ) -> InferenceRequest:
        """Enqueue one inference request; returns it immediately.

        The request is REJECTED on the spot when the in-flight limit (or
        its model's quota) is reached; otherwise it completes — or, with
        deadline-aware admission, may be DROPPED before dispatch —
        asynchronously in simulated time (drive the simulator, e.g. via
        :meth:`run_until_settled`).

        ``deadline`` is an *absolute* simulated time for goodput/QoS
        accounting; when omitted, the admission config's per-model SLO
        (``slo_by_model``) stamps ``now + slo``.
        """
        if model_name not in self.models:
            raise KeyError(f"model {model_name!r} not registered")
        # Catch a malformed batch here: admitted-then-crashed would leak
        # the admission slot and can surface the error (a KeyError at
        # dispatch, a reshape ValueError in ``model.forward``) from an
        # unrelated request's event.
        per_sample = self._bags_per_sample[model_name]
        if batch.bags.keys() != per_sample.keys():
            raise ValueError(
                f"batch tables {sorted(batch.bags)} do not match model "
                f"{model_name!r} features {sorted(per_sample)}"
            )
        for name, count in per_sample.items():
            if len(batch.bags[name]) != batch.batch_size * count:
                raise ValueError(
                    f"batch of {batch.batch_size} has {len(batch.bags[name])} "
                    f"bags for table {name!r} of model {model_name!r}, "
                    f"not {batch.batch_size * count}"
                )
        if deadline is None:
            slo = self.admission.slo_for(model_name)
            deadline = self.sim.now + slo if slo is not None else float("inf")
        request = InferenceRequest(
            model=model_name,
            batch=batch,
            request_id=self._next_request_id,
            t_arrival=self.sim.now,
            deadline=deadline,
            priority=self.admission.priority_for(model_name),
            user_id=batch.user_id,
            on_done=on_done,
        )
        self._next_request_id += 1
        if self.admission.deadline_drop and self.sim.now > request.deadline:
            # Arrived already expired: refuse rather than admit-and-drop.
            request.drop_reason = REASON_DEADLINE
            return self._reject(request)
        if not self.queue.offer(request):
            return self._reject(request)
        for recorder in self.recorders:
            recorder.record_arrival(request)
        self.scheduler.pump()
        return request

    def _reject(self, request: InferenceRequest) -> InferenceRequest:
        """Terminate a submission that never took an admission slot."""
        request.state = RequestState.REJECTED
        request.t_done = self.sim.now
        for recorder in self.recorders:
            recorder.record_reject(request)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.event(
                "reject",
                request_id=request.request_id,
                model=request.model,
                reason=request.drop_reason or "capacity",
            )
        if request.on_done is not None:
            request.on_done(request)
        return request

    def _drop(self, request: InferenceRequest, reason: str) -> None:
        """Shed an admitted, undispatched request: DROPPED with ``reason``,
        its admission slot freed.  The caller notifies ``on_done``."""
        request.state = RequestState.DROPPED
        request.drop_reason = reason
        request.t_done = self.sim.now
        request.t_drop = self.sim.now
        self.queue.release(request.model)
        for recorder in self.recorders:
            recorder.record_drop(request)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.event(
                "drop",
                request_id=request.request_id,
                model=request.model,
                reason=reason,
                wait_s=request.drop_wait,
            )

    def _drop_if_expired(self, request: InferenceRequest) -> bool:
        """Deadline-aware early drop (the scheduler's pop filter).

        A queued request whose deadline has passed — or will pass within
        ``drop_headroom_s``, the configured service-time floor — is shed
        at dispatch time: device work it can no longer convert into
        goodput goes to a request that still can.
        """
        if self.sim.now + self.admission.drop_headroom_s <= request.deadline:
            return False
        self._drop(request, REASON_DEADLINE)
        if request.on_done is not None:
            request.on_done(request)
        return True

    def _batch_done(self, requests: List[InferenceRequest]) -> None:
        """Embedding stage finished for a coalesced batch; queue each
        request's dense tower on the NN worker pool, then complete."""
        sim = self.sim
        for request in requests:
            model = self.models[request.model]
            if self.config.compute_outputs:
                request.output = model.forward(request.batch.dense, request.values)
            if not self.config.dense_stage:
                sim.schedule_at(sim.now, lambda r=request: self._complete(r))
                continue
            start, _finish = self.hostpool.dense.submit(
                model,
                request.batch.batch_size,
                lambda r=request: self._complete(r),
            )
            request.t_dense_start = start

    def _complete(self, request: InferenceRequest) -> None:
        request.state = RequestState.COMPLETE
        request.t_done = self.sim.now
        self.queue.release(request.model)
        for recorder in self.recorders:
            recorder.record_completion(request)
        tracer = self.sim.tracer
        if tracer is not None:
            self._trace_request(tracer, request)
        if request.on_done is not None:
            request.on_done(request)

    @staticmethod
    def _trace_request(tracer, request: InferenceRequest) -> None:
        """Synthesize the per-request span tree from its timestamps.

        Requests complete asynchronously through shared batches, so the
        tree is recorded retrospectively at completion: a ``request``
        root over ``[t_arrival, t_done]`` with ``queue`` / ``emb`` /
        ``dense_wait`` / ``dense`` children tiling it.  The ``emb``
        child names the coalesced batch's span (``batch_sid``), which is
        how analysis grafts the shared device-tier subtree into every
        request that waited on it.
        """
        root = tracer.add(
            "request",
            request.t_arrival,
            request.t_done,
            request_id=request.request_id,
            model=request.model,
            user_id=request.user_id,
            degraded=request.degraded,
        )
        if request.t_dispatch < 0:
            return
        tracer.add("queue", request.t_arrival, request.t_dispatch, parent=root)
        emb_end = (
            request.t_emb_done if request.t_emb_done >= 0 else request.t_done
        )
        batch_span = getattr(request, "obs_batch", None)
        emb_attrs = {"batch_sid": batch_span.sid} if batch_span is not None else {}
        tracer.add("emb", request.t_dispatch, emb_end, parent=root, **emb_attrs)
        if request.t_dense_start >= 0:
            tracer.add("dense_wait", emb_end, request.t_dense_start, parent=root)
            tracer.add("dense", request.t_dense_start, request.t_done, parent=root)

    def cancel_queued(self, request: InferenceRequest, reason: str) -> bool:
        """Cancel one still-queued request (tolerance layer: a timed-out
        or hedge-losing attempt whose device work has not started).

        Returns ``False`` — and does nothing — when the request is no
        longer queued here (already dispatched, or already terminal);
        cancellation never claws back in-flight device work.  On success
        the request terminates DROPPED with ``reason`` and its admission
        slot frees, preserving the conservation invariant.
        """
        if request.state is not RequestState.QUEUED:
            return False
        if not self.queue.remove(request):
            return False
        self._drop(request, reason)
        if reason == "timeout":
            self.stats.timeout_cancels += 1
        if request.on_done is not None:
            request.on_done(request)
        return True

    def shed_queued(self, reason: str = "host_down") -> int:
        """Drop every queued (not yet dispatched) request, e.g. on a
        cluster host failure.

        Dispatched batches run to completion (their device work is
        already in flight); only undispatched queue residents are shed,
        each as a DROPPED terminal with ``reason``, keeping the
        ``submitted == completed + rejected + dropped + inflight``
        invariant intact.  Returns how many requests were shed.
        """
        shed = self.queue.drain_queued()
        for request in shed:
            self._drop(request, reason)
            if request.on_done is not None:
                request.on_done(request)
        return len(shed)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def backends(self) -> Iterator[SlsBackend]:
        """Every SLS backend behind this server's workers."""
        for pool in self.workers.values():
            for worker in pool:
                yield from worker.stage.backends()

    def hostpool_summary(self) -> Dict[str, Dict[str, float]]:
        """Host resource model report: per-pool capacity, occupancy,
        wait and utilization (see :mod:`repro.serving.hostpool`)."""
        return self.hostpool.summary()

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run_until_settled(self, limit: float = float("inf")) -> float:
        """Advance the simulator until every admitted request completed."""
        return self.sim.run_until(lambda: self.queue.inflight == 0, limit)
