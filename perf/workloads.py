"""The five workloads, composed from the public API only.

Each workload is a :class:`~repro.workload.ScenarioSpec` (wrapped in a
:class:`~repro.cluster.ClusterSpec` for the fleet) plus the two things a
spec cannot say: the SSD baseline's host LRU (``RunnerConfig``) and
``age_device``.  :func:`setup` and :func:`run` build and drive it step by
step the way ``run_scenario`` / ``run_cluster_scenario`` do internally,
because that is the only way to time set-up and run apart from outside;
``perf/tests/test_equivalence.py`` holds the two paths to the same result.

Load is open-loop Poisson in *simulated* time.  On the device workloads
the arrival instants are one recorded Poisson trace per workload
(``ArrivalTrace.poisson`` with a fixed seed, replayed), and so is the
update schedule; ``--seed`` draws what each request looks up.  Arrival
noise would otherwise decide the simulated tail (the p99 of 1,000 SSD
requests moved by 43 % of its median from seed to seed, against 8 %
replayed), which is the reason ``repro.workload.arrivals`` gives for
replaying.  On DRAM the ids never enter the simulated clock, so a replayed
trace would make every simulated number a constant of the model: there
``--seed`` draws the arrival instants too.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster import ClusterSpec, UserOpenLoopGenerator, UserSpec, build_cluster
from repro.core.engine import NdpEngineConfig
from repro.host.system import build_system
from repro.models.dlrm import DlrmConfig, DlrmModel
from repro.models.runner import RunnerConfig, required_capacity_pages
from repro.serving import InferenceServer, age_device, make_model_updatable
from repro.workload import (
    ArrivalTrace,
    ScenarioSpec,
    TenantSpec,
    UpdateStream,
    UpdateStreamSpec,
    run_workload,
)

from .layers import NO_TRACE

__all__ = ["Workload", "WORKLOADS", "BY_NAME", "Built", "Observation", "setup", "run", "observe"]

MODEL = "bench"
BATCH_SIZE = 2
MAX_INFLIGHT = 512
# The recorded schedules: arrival instants and the update stream do not
# move with --seed (see the module docstring).
ARRIVAL_SEED = 4242
UPDATE_SEED = 7919
ROWS_PER_UPDATE = 16


def bench_model(table_rows: int) -> DlrmModel:
    """The one model every workload serves (the zoo models cost ~110 ms of
    host time per request and cannot reach 1,000 completions in budget)."""
    return DlrmModel(
        DlrmConfig(
            name=MODEL,
            dense_in=16,
            bottom_mlp=(32, 16),
            top_mlp=(32, 16),
            num_tables=2,
            table_rows=table_rows,
            dim=16,
            lookups=8,
        ),
        seed=1,
    )


@dataclass(frozen=True)
class Workload:
    """One traffic shape x backend x device state, as plain data."""

    name: str
    why: str
    backend: str
    table_rows: int
    n_requests: int
    rate: float                         # offered requests per simulated second
    slo_s: float
    replay_arrivals: bool = True        # False: --seed draws the instants too
    zipf_alpha: Optional[float] = None  # None: uniform ids
    host_cache_entries: int = 0         # SSD baseline's per-table host LRU
    update_rate: float = 0.0            # update batches per simulated second
    aged: bool = False
    n_hosts: int = 1                    # > 1: consistent-hash fleet, user-keyed

    def requests(self, scale: float = 1.0) -> int:
        return max(1, int(round(self.n_requests * scale)))

    def scenario(self, seed: int, scale: float = 1.0) -> ScenarioSpec:
        n = self.requests(scale)
        updates = None
        if self.update_rate > 0:
            updates = UpdateStreamSpec(
                rate=self.update_rate,
                n_updates=max(1, int(self.update_rate * n / self.rate)),
                rows_per_update=ROWS_PER_UPDATE,
                policy="interleave",
                # The stream seeds itself with scenario seed + offset.
                seed_offset=UPDATE_SEED - seed,
            )
        if self.replay_arrivals:
            arrivals = dict(
                arrival="replay", trace=ArrivalTrace.poisson(MODEL, self.rate, n, ARRIVAL_SEED)
            )
        else:
            arrivals = dict(arrival="open", rate=self.rate, n_requests=n)
        return ScenarioSpec(
            name=self.name,
            tenants=(
                TenantSpec(
                    model=MODEL,
                    batch_size=BATCH_SIZE,
                    slo_s=self.slo_s,
                    zipf_alpha=self.zipf_alpha,
                    **arrivals,
                ),
            ),
            backend=self.backend,
            max_inflight_requests=MAX_INFLIGHT,
            seed=seed,
            updates=updates,
        )

    def cluster(self, seed: int, scale: float = 1.0) -> ClusterSpec:
        return ClusterSpec(
            name=self.name,
            scenario=self.scenario(seed, scale),
            n_hosts=self.n_hosts,
            router="consistent_hash",
            router_spread=2,
            users=UserSpec(n_users=4000, alpha=1.05, seed=3),
            embcache_slots=8192,
        )


WORKLOADS = (
    Workload(
        name="dram_serve",
        why="No device layer runs, so serving, workload, models and embedding.data do the work: "
        "the no-change row for every flash, FTL, NVMe or NDP optimisation.",
        backend="dram",
        table_rows=409_600,
        n_requests=12_000,
        # 2,000 rps would leave the median at the bare service time, the
        # same on every seed; at 40,000 the dense stage queues.
        rate=40_000.0,
        slo_s=1e-3,
        replay_arrivals=False,
        zipf_alpha=0.8,
    ),
    Workload(
        name="ssd_serve",
        why="The paper's COTS baseline: block reads through driver, nvme, ftl and flash behind a host "
        "LRU much smaller than the working set; most events per request, core untouched.",
        backend="ssd",
        table_rows=409_600,
        n_requests=1000,
        rate=400.0,
        slo_s=20e-3,
        zipf_alpha=0.8,
        host_cache_entries=8192,
    ),
    Workload(
        name="ndp_serve",
        why="Same traffic as ssd_serve on the paper's NDP engine: core does the work and host caches, "
        "bulk NVMe transfer and host accumulate are bypassed; the pair gives the headline ratio.",
        backend="ndp",
        table_rows=409_600,
        n_requests=1000,
        rate=400.0,
        slo_s=5e-3,
        zipf_alpha=0.8,
    ),
    Workload(
        name="aged_update_mix",
        why="Reads beside live updates on an aged device: ftl.write, mapping updates, GC victim moves "
        "and flash program/erase share the layers with reads, so a read-path gain that costs writes shows.",
        backend="ssd",
        table_rows=4096,
        n_requests=1000,
        rate=150.0,
        slo_s=20e-3,
        update_rate=10.0,
        aged=True,
    ),
    Workload(
        name="cluster_chash",
        why="Four NDP hosts behind a consistent-hash router with Zipf users: the only workload where "
        "cluster code, fleet stats aggregation and a 4x device preload (set-up time, RSS) matter.",
        backend="ndp",
        table_rows=409_600,
        n_requests=1000,
        rate=6000.0,
        slo_s=5e-3,
        n_hosts=4,
    ),
)
BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass
class Built:
    """A workload after set-up: everything :func:`run` needs."""

    workload: Workload
    seed: int
    front: object                       # InferenceServer or Cluster
    servers: List[InferenceServer]
    generators: list
    update_stream: Optional[UpdateStream] = None
    update_engine: object = None

    @property
    def sim(self):
        return self.front.sim

    @property
    def model(self):
        return self.front.models[MODEL]

    @property
    def devices(self):
        return [d for server in self.servers for d in server.system.devices]


def setup(workload: Workload, seed: int, scale: float = 1.0, tracer=NO_TRACE) -> Built:
    """Everything before the first request: the set-up half of a repetition."""
    with tracer.span("build_model", "setup"):
        model = bench_model(workload.table_rows)
    if workload.n_hosts > 1:
        spec = workload.cluster(seed, scale)
        scenario = spec.scenario
        with tracer.span("build_cluster", "setup"):
            front = build_cluster(spec, [model])
        servers = [node.server for node in front.nodes]
        with tracer.span("build_generators", "setup"):
            generators = [
                UserOpenLoopGenerator(
                    tenant.model,
                    spec.users.population(),
                    rate=tenant.rate,
                    n_requests=tenant.n_requests,
                    batch_size=tenant.batch_size,
                    arrivals=None if tenant.trace is None else tenant.trace.times,
                )
                for tenant in scenario.tenants
            ]
    else:
        scenario = workload.scenario(seed, scale)
        if scenario.updates is not None:
            with tracer.span("make_model_updatable", "setup"):
                make_model_updatable(model)
        with tracer.span("build_system", "setup"):
            system = build_system(
                min_capacity_pages=required_capacity_pages(model),
                ndp=NdpEngineConfig(queue_when_full=True),
            )
        with tracer.span("build_server", "setup"):
            front = InferenceServer(system, scenario.serving_config())
        servers = [front]
        runner_config = None
        if workload.host_cache_entries:
            runner_config = RunnerConfig(
                kind=scenario.backend_kind,
                host_cache_entries=workload.host_cache_entries,
            )
        with tracer.span("register_model", "setup"):
            front.register_model(model, scenario.backend_kind, runner_config=runner_config)
        if workload.aged:
            with tracer.span("age_device", "setup"):
                age_device(system)
        with tracer.span("build_generators", "setup"):
            generators = [
                tenant.to_generator(model, seed=scenario.seed + 101 * i)
                for i, tenant in enumerate(scenario.tenants)
            ]
    built = Built(workload, scenario.seed, front, servers, generators)
    if scenario.updates is not None:
        with tracer.span("build_update_stream", "setup"):
            built.update_engine = scenario.updates.make_engine(servers)
            built.update_stream = UpdateStream(scenario.updates, model, seed=scenario.seed)
            built.update_stream.schedule(built.sim, built.update_engine)
    return built


def run(built: Built, tracer=NO_TRACE) -> None:
    """Drive the traffic to completion: the run half of a repetition."""
    with tracer.span("run_workload", "run"):
        run_workload(built.front, built.generators, seed=built.seed)
    if built.update_stream is not None:
        stream, engine = built.update_stream, built.update_engine
        with tracer.span("update_drain", "run"):
            built.sim.run_until(lambda: stream.done and engine.idle)


@dataclass
class Observation:
    """What one finished repetition produced, on the simulated clock."""

    summary: Dict[str, float]
    latencies_s: List[float]            # sorted
    submitted: int
    completed: int
    rejected: int
    dropped: int
    inflight: int
    goodput: int
    completion_lag_s: float             # last completion after last arrival
    update_pages_written: int
    update_writes_completed: int
    digest: str

    @property
    def attempted(self) -> int:
        return self.submitted + self.update_pages_written

    @property
    def failed(self) -> int:
        """Requests that did not complete plus update page writes that never did."""
        return (self.submitted - self.completed) + (
            self.update_pages_written - self.update_writes_completed
        )

    @property
    def slo_miss_frac(self) -> float:
        """Share of submitted requests not completed within the SLO."""
        return 1.0 - self.goodput / self.submitted


def _digest(summary: Dict[str, float], latencies_s: List[float]) -> str:
    """sha256 over the sorted latencies and the summary: the bit-identity
    guard a simulator-speed change must leave unchanged."""
    payload = json.dumps(
        {"latencies_s": [x.hex() for x in latencies_s], "summary": summary}, sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def observe(built: Built, tracer=NO_TRACE) -> Observation:
    stats = built.front.stats
    with tracer.span("stats.summary"):
        summary = stats.summary()
    # ClusterStats merges its hosts' latencies in a method; ServingStats
    # keeps the list as an attribute.
    latencies = stats.latencies() if callable(stats.latencies) else stats.latencies
    latencies = sorted(float(x) for x in latencies)
    arrivals = [t for server in built.servers for t in server.stats.arrival_times]
    return Observation(
        summary=summary,
        latencies_s=latencies,
        submitted=stats.submitted,
        completed=stats.completed,
        rejected=stats.rejected,
        dropped=stats.dropped,
        inflight=stats.inflight,
        goodput=stats.goodput,
        completion_lag_s=stats.busy_span() - (max(arrivals) - min(arrivals)),
        update_pages_written=sum(s.stats.update_pages_written for s in built.servers),
        update_writes_completed=sum(s.stats.update_writes_completed for s in built.servers),
        digest=_digest(summary, latencies),
    )
