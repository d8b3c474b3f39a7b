"""Declarative multi-tenant serving scenarios.

A :class:`ScenarioSpec` names everything one serving experiment needs —
N models x client populations x arrival processes x SLO deadlines x
QoS policy — as plain data.  Every run has two halves: :func:`setup`
turns the spec into a configured :class:`~repro.serving.InferenceServer`,
its registered models, the matching :mod:`repro.workload.generators`
and the armed fault schedule (a :class:`Built`, nothing submitted yet);
:func:`run` drives any :class:`Built` — this server, or the fleet
:func:`repro.cluster.setup_cluster` builds — to quiescence and returns
one :class:`RunResult` with overall, per-host and per-tenant (per-lane)
numbers.  :func:`run_scenario` is ``run(setup(...))``; a caller that must
act in between (``age_device``) calls the two halves itself.

One tenant == one registered model == one queue lane: the admission
config's per-model SLO/priority/quota maps are assembled from the
tenant specs, and :meth:`~repro.serving.stats.ServingStats.lane_summary`
reports each tenant's goodput and tail latency.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.engine import NdpEngineConfig
from ..embedding.placement import profile_heat
from ..faults.injector import FaultInjector
from ..faults.spec import FaultSpec
from ..host.system import System, build_system
from ..models.base import Batch, IndexSampler, RecModel
from ..models.runner import BackendKind, RunnerConfig, required_capacity_pages
from ..params import Count, Int, NonNeg, Pos, PosCount, check_domains
from ..serving import AdmissionConfig, InferenceServer, ServingConfig
from ..serving.updates import make_model_updatable
from ..sim.kernel import Simulator
from ..traces.locality import LocalityTraceGenerator
from ..traces.powerlaw import ZipfTraceGenerator
from .arrivals import ArrivalTrace
from .updates import UpdateStream, UpdateStreamSpec
from .generators import (
    ClosedLoopGenerator,
    LoadGenerator,
    OpenLoopGenerator,
    run_workload,
)

__all__ = [
    "TenantSpec",
    "ScenarioSpec",
    "Built",
    "RunResult",
    "prepare_models",
    "host_system",
    "setup",
    "run",
    "run_scenario",
    "tenant_samplers",
]


def tenant_samplers(
    model: RecModel,
    locality_k: Optional[float] = None,
    zipf_alpha: Optional[float] = None,
    seed: int = 0,
) -> Optional[Dict[str, IndexSampler]]:
    """Per-table id samplers shaped like the paper's traces.

    ``locality_k`` builds Fig 4-style stack-distance locality streams
    (:class:`~repro.traces.locality.LocalityTraceGenerator`);
    ``zipf_alpha`` builds Fig 3-style power-law popularity streams
    (:class:`~repro.traces.powerlaw.ZipfTraceGenerator`).  ``None`` for
    both means uniform ids (the model's default sampler).
    """
    if locality_k is not None and zipf_alpha is not None:
        raise ValueError("pick locality_k or zipf_alpha, not both")
    if locality_k is None and zipf_alpha is None:
        return None
    samplers: Dict[str, IndexSampler] = {}
    for i, feature in enumerate(model.features):
        table_seed = seed + 31 * i
        if locality_k is not None:
            samplers[feature.name] = LocalityTraceGenerator(
                table_rows=feature.spec.rows, k=locality_k, seed=table_seed
            ).generate
        else:
            samplers[feature.name] = ZipfTraceGenerator(
                table_rows=feature.spec.rows, alpha=zipf_alpha, seed=table_seed
            ).generate
    return samplers


# The fields each arrival model needs set (non-zero, not None).
_ARRIVAL_NEEDS = {"open": ("rate", "n_requests"), "replay": ("trace",),
                  "closed": ("num_clients", "requests_per_client")}


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic and QoS contract.

    ``arrival`` selects the client model: ``"open"`` (``rate`` rps
    Poisson, ``n_requests`` total), ``"closed"`` (``num_clients`` x
    ``requests_per_client`` with ``think_time_s``) or ``"replay"``
    (verbatim :class:`ArrivalTrace` in ``trace``).  ``slo_s`` is the
    relative deadline goodput is measured against (and, with the
    scenario's ``deadline_drop``, the early-drop criterion); ``priority``
    and ``quota`` feed the admission config's lane maps.  ``locality_k``
    / ``zipf_alpha`` shape the lookup id stream after the paper's
    Fig 4 / Fig 3 trace characterizations.

    ``backend`` carries the tables' knobs (host LRU, NDP partition,
    page-cache prewarm) to ``register_model``.  ``requests`` are recorded
    batches, one per arrival, submitted in order instead of drawn; the
    tenant's generator keeps what it submitted (``.submitted``).
    """

    model: str
    arrival: str = "open"
    rate: NonNeg = 0.0
    n_requests: Count = 0
    num_clients: Count = 0
    requests_per_client: Count = 0
    think_time_s: NonNeg = 0.0
    trace: Optional[ArrivalTrace] = None
    batch_size: PosCount = 1
    slo_s: Optional[Pos] = None
    priority: Int = 0
    quota: Optional[PosCount] = None
    locality_k: Optional[NonNeg] = None
    zipf_alpha: Optional[Pos] = None
    backend: Optional[RunnerConfig] = None
    requests: Optional[Tuple[Batch, ...]] = None

    def __post_init__(self) -> None:
        check_domains(self)
        needs = _ARRIVAL_NEEDS.get(self.arrival)
        if needs is None:
            raise ValueError(f"unknown arrival model {self.arrival!r}")
        if not all(getattr(self, name) for name in needs):
            raise ValueError(f"{self.arrival} tenant {self.model!r} needs {' and '.join(needs)}")
        if not self.total_requests:  # a replay trace of no arrivals
            raise ValueError(f"{self.arrival} tenant {self.model!r} has no arrivals")
        if self.arrival == "replay" and self.trace.model != self.model:
            raise ValueError(
                f"replay tenant {self.model!r} has a trace recorded for {self.trace.model!r}"
            )
        if self.requests is not None and len(self.requests) != self.total_requests:
            raise ValueError(
                f"tenant {self.model!r} records {len(self.requests)} requests "
                f"for {self.total_requests} arrivals"
            )
        if self.requests is not None and (self.locality_k is not None or self.zipf_alpha is not None):
            raise ValueError(f"tenant {self.model!r} records its requests: nothing to shape")

    @property
    def total_requests(self) -> int:
        if self.arrival == "open":
            return self.n_requests
        if self.arrival == "closed":
            return self.num_clients * self.requests_per_client
        return self.trace.n_requests

    def to_generator(self, model: RecModel, seed: int = 0) -> LoadGenerator:
        if model.name != self.model:
            raise ValueError(f"model {model.name!r} is not tenant {self.model!r}")
        samplers = tenant_samplers(
            model, self.locality_k, self.zipf_alpha, seed=seed
        )
        if self.arrival == "open":
            generator = OpenLoopGenerator(
                self.model,
                rate=self.rate,
                n_requests=self.n_requests,
                batch_size=self.batch_size,
                samplers=samplers,
            )
        elif self.arrival == "closed":
            generator = ClosedLoopGenerator(
                self.model,
                num_clients=self.num_clients,
                requests_per_client=self.requests_per_client,
                think_time_s=self.think_time_s,
                batch_size=self.batch_size,
                samplers=samplers,
            )
        else:
            generator = OpenLoopGenerator(
                self.model,
                arrivals=self.trace.times,
                batch_size=self.batch_size,
                samplers=samplers,
            )
        if self.requests is not None:
            generator.use_batches(self.requests)
        return generator


@dataclass(frozen=True)
class ScenarioSpec:
    """A whole serving experiment as data: tenants + server knobs + QoS."""

    name: str
    tenants: Tuple[TenantSpec, ...]
    backend: str = "ndp"                 # dram | ssd | ndp
    max_inflight_requests: PosCount = 64
    max_batch_requests: PosCount = 8
    max_inflight_batches_per_worker: PosCount = 2
    max_inflight_batches_total: Optional[PosCount] = None
    dense_stage: bool = True
    # Each request's model output, computed (host wall-clock only).
    compute_outputs: bool = False
    # Host resource model (repro.serving.hostpool): bounded host SLS /
    # dense NN worker pools.  Defaults keep the seed's behaviour
    # bit-identically; dense_workers=0 means unbounded ("∞" sweeps).
    host_sls_workers: Optional[PosCount] = None
    dense_workers: Count = 1
    dense_time_scale: Pos = 1.0
    deadline_drop: bool = False
    drop_headroom_s: NonNeg = 0.0
    seed: Count = 0
    # Fault schedule (repro.faults), the one for every run.  Standalone,
    # events address this server's devices and name no host (the
    # injector refuses one before traffic starts); on a fleet every event
    # names its host, host_drain / host_fail / host_restore included.
    faults: Optional[FaultSpec] = None
    # Live embedding update stream (repro.workload.updates) interleaved
    # with the tenants' read traffic.  None keeps the read-only timeline
    # bit-identical to the pre-update implementation.
    updates: Optional[UpdateStreamSpec] = None
    # Row placement (repro.ftl.layout / repro.embedding.placement):
    # "modulo" keeps the legacy identity layout; "frequency" profiles
    # each tenant's id distribution for ``layout_profile_batches``
    # batches before registration and heat-packs table pages from it.
    layout: str = "modulo"
    layout_profile_batches: Count = 32

    def __post_init__(self) -> None:
        check_domains(self)
        if self.layout not in ("modulo", "frequency"):
            raise ValueError(f"unknown layout {self.layout!r} (modulo|frequency)")
        if not self.tenants:
            raise ValueError("scenario needs at least one tenant")
        names = [t.model for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError("one lane per tenant: tenant models must be unique")
        kind = BackendKind(self.backend)  # ValueError for unknown backends
        for t in self.tenants:
            if t.backend is not None and t.backend.kind != kind:
                raise ValueError(
                    f"tenant {t.model!r} has a {t.backend.kind.value} backend "
                    f"in a {kind.value} scenario"
                )
        if self.updates is not None and self.updates.model is not None:
            if self.updates.model not in names:
                raise ValueError(
                    f"update stream targets {self.updates.model!r} but the "
                    f"scenario's tenants are {names}"
                )

    @property
    def backend_kind(self) -> BackendKind:
        return BackendKind(self.backend)

    def admission_config(self) -> AdmissionConfig:
        """Per-tenant SLO/priority/quota maps gathered into one policy."""
        return AdmissionConfig(
            deadline_drop=self.deadline_drop,
            drop_headroom_s=self.drop_headroom_s,
            slo_by_model={
                t.model: t.slo_s for t in self.tenants if t.slo_s is not None
            },
            quota_by_model={
                t.model: t.quota for t in self.tenants if t.quota is not None
            },
            priority_by_model={
                t.model: t.priority for t in self.tenants if t.priority != 0
            },
        )

    def serving_config(self) -> ServingConfig:
        mine = {f.name for f in fields(self)}  # the ServingConfig fields repeated here
        repeated = {f.name: getattr(self, f.name) for f in fields(ServingConfig) if f.name in mine}
        return ServingConfig(admission=self.admission_config(), **repeated)

    @property
    def total_requests(self) -> int:
        return sum(t.total_requests for t in self.tenants)

    def generators(self, by_name: Mapping[str, RecModel]) -> List[LoadGenerator]:
        """One generator per tenant, tenant ``i`` seeded ``seed + 101 * i``."""
        return [
            tenant.to_generator(by_name[tenant.model], seed=self.seed + 101 * i)
            for i, tenant in enumerate(self.tenants)
        ]


@dataclass
class Built:
    """A run after set-up and before traffic: ``sim.now == 0`` and
    nothing submitted.

    What differs between a standalone server and a fleet is decided by
    the set-up function that made this (:func:`setup` or
    :func:`repro.cluster.setup_cluster`) and carried as data, so
    :func:`run` drives both one way.  ``front`` is what the generators
    submit to — one :class:`InferenceServer` or a
    :class:`~repro.cluster.Cluster` — ``servers`` the hosts behind it and
    ``injector`` the armed fault schedule (``None`` without one).  A
    caller that must act between set-up and run (``age_device``) does so
    on these objects.
    """

    scenario: ScenarioSpec
    front: object
    servers: List[InferenceServer]
    generators: List[LoadGenerator]
    injector: Optional[FaultInjector]


@dataclass
class RunResult:
    """One settled run, standalone or fleet: the front end it drove and
    what happened.

    ``stats`` is the front end's own (a
    :class:`~repro.serving.stats.ServingStats`, or a fleet's
    :class:`~repro.cluster.stats.ClusterStats`); ``per_host`` is each
    host's own summary by name (a standalone server is ``host0``) and
    ``lanes`` each tenant's.  ``fault_log`` is what the fault schedule
    applied and when, ``updates`` the update engine's gauges; both are
    empty when the scenario has no faults or no update stream.
    """

    front: object
    stats: object
    summary: Dict[str, float]
    per_host: Dict[str, Dict[str, float]]
    lanes: Dict[str, Dict[str, float]]
    fault_log: List[Dict]
    updates: Dict[str, float]

    def lane(self, model: str) -> Dict[str, float]:
        return self.lanes[model]

    def __repr__(self) -> str:
        return (
            f"RunResult(hosts={len(self.per_host)}, "
            f"completed={self.summary['completed']:.0f}, "
            f"goodput={self.summary['goodput']:.0f}, "
            f"p99={self.summary['p99_ms']:.2f}ms)"
        )


def _update_target(scenario: ScenarioSpec) -> str:
    return scenario.updates.model or scenario.tenants[0].model


def prepare_models(
    scenario: ScenarioSpec,
    models: Union[Sequence[RecModel], Mapping[str, RecModel]],
) -> Dict[str, RecModel]:
    """First step of every run: the scenario's models, by name, made
    ready to register.

    Everything that must happen to the *canonical* tables before any of
    them is attached, sharded or replicated happens here, once: the
    update overlay (replicas and row shards share the data object, so
    one commit is visible on every device of every host) and, for
    ``layout="frequency"``, the tenants' heat profiles
    (:meth:`~repro.embedding.table.EmbeddingTable.replica` and
    ``row_shard`` carry the profile, so every copy packs the same
    layout).
    """
    by_name = (
        dict(models)
        if isinstance(models, Mapping)
        else {model.name: model for model in models}
    )
    missing = [t.model for t in scenario.tenants if t.model not in by_name]
    if missing:
        raise KeyError(f"scenario {scenario.name!r} names unknown models {missing}")
    if scenario.updates is not None:
        make_model_updatable(by_name[_update_target(scenario)])
    if scenario.layout == "frequency":
        for name, per_table in _profile_tenant_heat(scenario, by_name).items():
            for table_name, heat in per_table.items():
                by_name[name].tables[table_name].set_heat(heat)
    return by_name


def host_system(
    scenario: ScenarioSpec,
    by_name: Mapping[str, RecModel],
    sim: Optional[Simulator] = None,
    embcache_slots: int = 0,
) -> System:
    """The one sizing rule: a single-SSD host large enough for
    the scenario's largest model, device-side NDP backpressure on.
    ``sim`` puts the host on a shared kernel (a fleet)."""
    capacity = max(
        required_capacity_pages(by_name[t.model]) for t in scenario.tenants
    )
    return build_system(
        min_capacity_pages=capacity,
        ndp=NdpEngineConfig(queue_when_full=True, embcache_slots=embcache_slots),
        sim=sim,
    )


def setup(
    spec: ScenarioSpec,
    models: Union[Sequence[RecModel], Mapping[str, RecModel]],
    system: Optional[System] = None,
    num_workers: int = 1,
    sharding=None,
    partition_profiles=None,
) -> Built:
    """The set-up half of a standalone run: one server, built and
    registered, its generators made and its fault schedule armed.

    ``models`` supplies the actual :class:`RecModel` instances the
    tenant specs name (a sequence or a name-keyed mapping).  ``system``
    defaults to a fresh :func:`host_system`; ``num_workers`` /
    ``sharding`` pass through to ``register_model`` so scenarios can run
    against multi-SSD layouts too, and so do each tenant's ``backend``
    and ``partition_profiles`` (per-table ids for an NDP partition).
    """
    by_name = prepare_models(spec, models)
    if system is None:
        system = host_system(spec, by_name)
    server = InferenceServer(system, spec.serving_config())
    for tenant in spec.tenants:
        server.register_model(
            by_name[tenant.model],
            spec.backend_kind,
            runner_config=tenant.backend,
            num_workers=num_workers,
            partition_profiles=partition_profiles,
            sharding=sharding,
        )
    injector = None
    if spec.faults is not None:
        injector = FaultInjector(spec.faults)
        injector.arm_server(server)
    return Built(spec, server, [server], spec.generators(by_name), injector)


def run(built: Built, tracer=None) -> RunResult:
    """The run half of every run: drive a :class:`Built` to quiescence.

    Installs ``tracer`` (a :class:`repro.obs.Tracer`) on the front end's
    simulator and the update stream on the kernel, drives the read
    traffic, lets in-flight device work finish (a no-op unless losing
    hedge / timed-out attempts are still running) and drains the update writes scheduled past the last
    read.  Deterministic for a fixed scenario seed; spans observe the
    run without perturbing it, so results are bit-identical with or
    without a tracer.
    """
    scenario, front = built.scenario, built.front
    if tracer is not None:
        tracer.install(front.sim)
    engine = stream = None
    if scenario.updates is not None:
        engine = scenario.updates.make_engine(built.servers)
        stream = UpdateStream(
            scenario.updates,
            front.models[_update_target(scenario)],
            seed=scenario.seed,
        )
        stream.schedule(front.sim, engine)
    stats = run_workload(front, built.generators, seed=scenario.seed)
    front.run_until_settled()
    if stream is not None:
        front.sim.run_until(lambda: stream.done and engine.idle)
    return RunResult(
        front=front,
        stats=stats,
        summary=stats.summary(),
        per_host={server.name: server.stats.summary() for server in built.servers},
        lanes=stats.lane_summary(),
        fault_log=[] if built.injector is None else list(built.injector.stats.log),
        updates={} if engine is None else engine.summary(),
    )


def run_scenario(
    spec: ScenarioSpec,
    models: Union[Sequence[RecModel], Mapping[str, RecModel]],
    system: Optional[System] = None,
    num_workers: int = 1,
    sharding=None,
    tracer=None,
) -> RunResult:
    """Build, run and summarize one scenario end-to-end:
    ``run(setup(...), tracer)``."""
    return run(setup(spec, models, system, num_workers, sharding), tracer)


def _profile_tenant_heat(
    spec: ScenarioSpec, by_name: Mapping[str, RecModel]
) -> Dict[str, Dict[str, np.ndarray]]:
    """Frequency histograms per (model, table) from the tenants' samplers.

    Draws ``layout_profile_batches`` batches from each tenant's id
    distribution, seeded like the serving stream: the locality/zipf
    generators pick *which* rows are popular from their seed, so a
    profile drawn under a different seed would rank the wrong rows hot.
    This models profiling yesterday's traffic from the same population.
    Tenants sharing a model accumulate into one histogram.  Uniform
    tenants (no locality/zipf shape) contribute nothing — with no
    profile at all the table keeps the legacy identity layout.
    """
    heat_by_model: Dict[str, Dict[str, np.ndarray]] = {}
    for i, tenant in enumerate(spec.tenants):
        model = by_name[tenant.model]
        samplers = tenant_samplers(
            model, tenant.locality_k, tenant.zipf_alpha, seed=spec.seed + 101 * i
        )
        if samplers is None or spec.layout_profile_batches == 0:
            continue
        per_table = heat_by_model.setdefault(tenant.model, {})
        for feature in model.features:
            sampler = samplers[feature.name]
            heat = profile_heat(
                sampler,
                feature.spec.rows,
                batches=spec.layout_profile_batches,
                batch_size=max(1, tenant.batch_size) * feature.lookups,
            )
            if feature.name in per_table:
                per_table[feature.name] += heat
            else:
                per_table[feature.name] = heat
    return heat_by_model

