"""Cluster tier: multi-host serving fleets with locality-aware routing.

N :class:`~repro.serving.InferenceServer` hosts — each with its own
SSDs, caches, sharding plan and host pools — share one sim kernel
behind a front-end router.  The :class:`Cluster` duck-types the
single-server surface, so :mod:`repro.workload` generators, scenarios
and traces drive a fleet unchanged; :class:`ClusterSpec` /
:func:`setup_cluster` (run by :func:`repro.workload.run`, or both as
:func:`run_cluster_scenario`) is the declarative front door.  See
``docs/SERVING.md`` (Cluster tier) for the full model and knobs.
"""

from .cluster import REASON_NO_HOST, Cluster, replica_model
from .node import ClusterNode, NodeState
from .router import (
    ConsistentHashRouter,
    LeastLoadedRouter,
    RoundRobinRouter,
    Router,
    make_router,
)
from .scenario import (
    ClusterSpec,
    UserSpec,
    build_cluster,
    run_cluster_scenario,
    setup_cluster,
)
from .stats import ClusterStats
from .users import UserOpenLoopGenerator, UserPopulation

__all__ = [
    "Cluster",
    "ClusterNode",
    "ClusterSpec",
    "ClusterStats",
    "ConsistentHashRouter",
    "LeastLoadedRouter",
    "NodeState",
    "REASON_NO_HOST",
    "RoundRobinRouter",
    "Router",
    "UserOpenLoopGenerator",
    "UserPopulation",
    "UserSpec",
    "build_cluster",
    "make_router",
    "replica_model",
    "run_cluster_scenario",
    "setup_cluster",
]
