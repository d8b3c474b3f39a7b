"""Declarative fleet experiments: a scenario × hosts × router × events.

A :class:`ClusterSpec` wraps one single-host
:class:`~repro.workload.scenario.ScenarioSpec` (tenants, server knobs,
QoS, seed — every host is configured identically from it) and adds the
fleet dimensions: host count, router policy, per-model placement,
user-keyed traffic (:class:`UserSpec`) and tail tolerance.  The fault
schedule is the scenario's own ``faults``: on a fleet every event names
its host, and a host's drain, fail and restore are the ``host_drain`` /
``host_fail`` / ``host_restore`` fault kinds.
:func:`setup_cluster` builds the fleet on one shared kernel through the
standalone set-up's own steps
(:func:`~repro.workload.scenario.prepare_models` →
:func:`~repro.workload.scenario.host_system` → register → generators →
fault arming), so every ``ScenarioSpec`` feature means the same thing
on a fleet, and :func:`~repro.workload.scenario.run` — the one that
runs a single server — drives it to a
:class:`~repro.workload.scenario.RunResult` with fleet, per-host and
per-lane numbers.  :func:`run_cluster_scenario` is the two in one call.

The oracle contract (``tests/cluster/test_cluster_oracle.py``): with
``n_hosts=1``, ``router="round_robin"``, no users and no faults, this
runner reproduces :func:`~repro.workload.scenario.run_scenario`
**bit-identically** — same per-host systems (one), same generator
seeds, same RNG draw order, zero extra sim events on the submit path —
so the whole cluster tier is a conservative extension of the
single-host stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple, Union

from ..faults.injector import FaultInjector
from ..faults.tolerance import ToleranceConfig
from ..models.base import RecModel
from ..params import Count, Fraction, NonNeg, PosCount, check_domains
from ..serving.server import InferenceServer
from ..sim.kernel import Simulator
from ..workload.generators import LoadGenerator
from ..workload.scenario import (
    Built,
    RunResult,
    ScenarioSpec,
    TenantSpec,
    host_system,
    prepare_models,
    run,
)
from .cluster import Cluster
from .router import make_router
from .users import (
    UserClosedLoopGenerator,
    UserOpenLoopGenerator,
    UserPopulation,
)

__all__ = [
    "UserSpec",
    "ClusterSpec",
    "build_cluster",
    "setup_cluster",
    "run_cluster_scenario",
]


@dataclass(frozen=True)
class UserSpec:
    """User-keyed traffic for the whole fleet (see
    :class:`~repro.cluster.users.UserPopulation`).  When set, every
    tenant's generator draws Zipf-popular users whose ids key the
    router; tenant ``locality_k``/``zipf_alpha`` samplers are replaced
    by the users' deterministic row profiles."""

    n_users: PosCount
    alpha: NonNeg = 1.05
    reuse: Fraction = 1.0
    seed: Count = 0

    # UserPopulation's own domains, checked when the spec is written.
    __post_init__ = check_domains

    def population(self) -> UserPopulation:
        return UserPopulation(
            self.n_users, alpha=self.alpha, seed=self.seed, reuse=self.reuse
        )


@dataclass(frozen=True)
class ClusterSpec:
    """A whole fleet experiment as data.

    ``scenario`` configures every host identically (admission, batching,
    host pools, backend) and carries the tenants, seed and fault
    schedule; every fault event must name a host of this fleet.
    ``placement`` maps model names to host-index tuples (models absent
    from it go on every host) — placing a hot model on more hosts is the
    replication knob.  ``embcache_slots`` sizes the per-device NDP
    embedding cache (0 = off, the standalone default) — the cache whose
    hit rate locality-aware routing is measured on.
    """

    name: str
    scenario: ScenarioSpec
    n_hosts: PosCount = 2
    router: str = "round_robin"          # round_robin | least_loaded | consistent_hash
    least_loaded_by: str = "inflight"
    router_vnodes: PosCount = 64
    router_spread: PosCount = 1
    placement: Optional[Mapping[str, Tuple[int, ...]]] = None
    users: Optional[UserSpec] = None
    num_workers: PosCount = 1
    embcache_slots: Count = 0
    # Tail tolerance (timeouts / retries / hedging / circuit breaker)
    # for the cluster front-end.  None keeps submit bit-identical to
    # the pre-fault-layer cluster.
    tolerance: Optional[ToleranceConfig] = None

    def __post_init__(self) -> None:
        check_domains(self)
        self.make_router()  # ValueError early: unknown policy, bad options
        hosts = {f"host{i}" for i in range(self.n_hosts)}
        faults = self.scenario.faults
        for event in faults.events if faults is not None else ():
            if event.host is None:
                raise ValueError(
                    f"cluster fault event {event.kind!r}@{event.t} "
                    f"must name a host"
                )
            if event.host not in hosts:
                raise ValueError(
                    f"fault event targets unknown host {event.host!r} "
                    f"(fleet has {self.n_hosts} hosts)"
                )
        if self.users is not None and any(t.requests for t in self.scenario.tenants):
            raise ValueError("user-keyed traffic draws every request; a tenant records its own")
        tenants = {t.model for t in self.scenario.tenants}
        for model, indices in (self.placement or {}).items():
            if model not in tenants:
                raise ValueError(f"placement names unknown model {model!r}")
            if not indices:
                raise ValueError(f"model {model!r} placed on no hosts")
            for index in indices:
                if not 0 <= index < self.n_hosts:
                    raise ValueError(
                        f"placement host {index} out of range for "
                        f"{self.n_hosts} hosts"
                    )

    def make_router(self):
        return make_router(
            self.router,
            least_loaded_by=self.least_loaded_by,
            hash_vnodes=self.router_vnodes,
            hash_spread=self.router_spread,
        )


def build_cluster(
    spec: ClusterSpec,
    models: Union[Sequence[RecModel], Mapping[str, RecModel]],
    sim: Optional[Simulator] = None,
) -> Cluster:
    """Construct the fleet a :class:`ClusterSpec` describes.

    The standalone runner's steps, N times on one shared kernel:
    :func:`~repro.workload.scenario.prepare_models` once (before
    placement, so every host's replica shares the update overlay and
    carries the heat profile), one
    :func:`~repro.workload.scenario.host_system` per host, then the
    scenario's models registered per the placement map — original
    instance on the first placed host, replicas elsewhere.
    """
    scenario = spec.scenario
    by_name = prepare_models(scenario, models)
    if sim is None:
        sim = Simulator()
    servers = [
        InferenceServer(
            host_system(scenario, by_name, sim, spec.embcache_slots),
            scenario.serving_config(),
            name=f"host{index}",
        )
        for index in range(spec.n_hosts)
    ]
    cluster = Cluster(servers, spec.make_router(), tolerance=spec.tolerance)
    placement = spec.placement or {}
    for tenant in scenario.tenants:
        cluster.register_model(
            by_name[tenant.model],
            scenario.backend_kind,
            runner_config=tenant.backend,
            num_workers=spec.num_workers,
            hosts=placement.get(tenant.model),
        )
    return cluster


def setup_cluster(
    spec: ClusterSpec,
    models: Union[Sequence[RecModel], Mapping[str, RecModel]],
) -> Built:
    """The set-up half of a fleet run: :func:`build_cluster`, then what
    only a fleet has — the scenario's fault schedule, host lifecycle
    included, armed on the whole fleet, and user-keyed generators when
    ``spec.users`` is set.  :func:`~repro.workload.scenario.run` drives
    the result exactly as it drives a single server.
    """
    cluster = build_cluster(spec, models)
    scenario = spec.scenario
    injector = None
    if scenario.faults is not None:
        injector = FaultInjector(scenario.faults)
        injector.arm_cluster(cluster)
    if spec.users is None:
        generators = scenario.generators(cluster.models)
    else:
        population = spec.users.population()
        generators = [_user_generator(t, population) for t in scenario.tenants]
    servers = [node.server for node in cluster.nodes]
    return Built(scenario, cluster, servers, generators, injector)


def _user_generator(
    tenant: TenantSpec, population: UserPopulation
) -> LoadGenerator:
    if tenant.arrival == "open":
        return UserOpenLoopGenerator(
            tenant.model,
            population,
            rate=tenant.rate,
            n_requests=tenant.n_requests,
            batch_size=tenant.batch_size,
        )
    if tenant.arrival == "closed":
        return UserClosedLoopGenerator(
            tenant.model,
            population,
            num_clients=tenant.num_clients,
            requests_per_client=tenant.requests_per_client,
            think_time_s=tenant.think_time_s,
            batch_size=tenant.batch_size,
        )
    return UserOpenLoopGenerator(
        tenant.model,
        population,
        batch_size=tenant.batch_size,
        arrivals=tenant.trace.times,
    )


def run_cluster_scenario(
    spec: ClusterSpec,
    models: Union[Sequence[RecModel], Mapping[str, RecModel]],
    tracer=None,
) -> RunResult:
    """Build, run and summarize one fleet scenario end-to-end:
    ``run(setup_cluster(...), tracer)``."""
    return run(setup_cluster(spec, models), tracer)
