"""Load generation for the serving layer: clients, traces, scenarios.

The paper evaluates RecSSD under *load*: production-shaped id streams
(Figs 3/4) and latency-vs-throughput serving curves (Fig 6).  The seed
repo drove the serving layer one way — open-loop Poisson arrivals —
which neither models how clients actually behave
(closed-loop: a client waits for its answer, thinks, asks again) nor
replays realistic locality through the stack.  This package is the
missing workload half of the serving story:

* :mod:`repro.workload.arrivals` — arrival processes and
  :class:`ArrivalTrace`, a recorded/pre-generated arrival-time trace
  that makes any run exactly replayable.
* :mod:`repro.workload.generators` — one :class:`LoadGenerator`
  interface over open-loop Poisson arrivals, closed-loop client
  populations with think time, and trace replay (constant gaps replay
  an :meth:`ArrivalTrace.uniform`); feed them Fig 3/4-shaped id
  streams by passing :mod:`repro.traces` generators as per-table
  samplers.  :func:`run_workload` drives any mix of generators against
  one :class:`~repro.serving.InferenceServer` — the one way traffic
  enters a server.
* :mod:`repro.workload.scenario` — declarative multi-tenant mixes:
  :class:`TenantSpec` (model x client population x arrival process x
  SLO deadline x priority/quota) under one :class:`ScenarioSpec`, run
  end-to-end by :func:`run_scenario` — itself ``run(setup(...))``:
  :func:`setup` builds the server (:func:`prepare_models` →
  :func:`host_system` → register → generators → fault arming) and
  :func:`run`, which the fleet's :func:`repro.cluster.setup_cluster`
  shares, drives it and returns one :class:`RunResult`.

QoS admission (deadline-aware early drop, per-model quotas, priority
lanes) lives in :mod:`repro.serving.admission`; scenarios declare the
per-tenant knobs and goodput (completed within deadline) comes back in
:meth:`~repro.serving.stats.ServingStats.lane_summary`.  See the
"Workloads & QoS" section of ``docs/SERVING.md``.
"""

from .arrivals import ArrivalTrace, poisson_gaps, uniform_gaps
from .generators import (
    ClosedLoopGenerator,
    LoadGenerator,
    OpenLoopGenerator,
    run_workload,
)
from .scenario import (
    Built,
    RunResult,
    ScenarioSpec,
    TenantSpec,
    host_system,
    prepare_models,
    run,
    run_scenario,
    setup,
    tenant_samplers,
)
from .updates import UpdateStream, UpdateStreamSpec

__all__ = [
    "UpdateStream",
    "UpdateStreamSpec",
    "ArrivalTrace",
    "poisson_gaps",
    "uniform_gaps",
    "LoadGenerator",
    "OpenLoopGenerator",
    "ClosedLoopGenerator",
    "run_workload",
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
