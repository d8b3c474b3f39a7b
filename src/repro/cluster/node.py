"""One addressable host in a serving fleet.

A :class:`ClusterNode` wraps one :class:`~repro.serving.InferenceServer`
(its own SSDs, caches, sharding plan and host pools, sharing the fleet's
sim kernel) with the routing-facing state the front-end needs: a stable
name, a lifecycle state (UP / DRAINING / DOWN) and cheap load gauges.

Lifecycle semantics (driven by :class:`~repro.cluster.cluster.Cluster`;
in a scenario, scheduled by the ``host_drain`` / ``host_fail`` /
``host_restore`` events of the fault schedule):

* **UP** — routable; the steady state.
* **DRAINING** — excluded from routing; everything already admitted
  (queued *and* dispatched) runs to completion.  The graceful restart /
  maintenance shape: no request is lost, the host just stops taking new
  traffic until :meth:`restore`.
* **DOWN** — excluded from routing *and* the queued (undispatched)
  backlog is shed as DROPPED (reason ``host_down``) via
  :meth:`~repro.serving.InferenceServer.shed_queued`.  Batches already
  on the devices complete (their simulated work is in flight); the
  fleet-wide ``submitted == completed + rejected + dropped + inflight``
  invariant survives the failure.
"""

from __future__ import annotations

from enum import Enum

from ..serving.server import InferenceServer

__all__ = ["NodeState", "ClusterNode"]


class NodeState(Enum):
    UP = "up"
    DRAINING = "draining"
    DOWN = "down"


class ClusterNode:
    """An :class:`InferenceServer` as the router sees it."""

    def __init__(self, server: InferenceServer):
        self.server = server
        self.state = NodeState.UP
        # Circuit breaker (repro.faults.tolerance.HealthTracker): an UP
        # host the breaker has ejected from routing while it probes the
        # host's latency back to health.  Orthogonal to the lifecycle
        # state — an ejected host still runs its admitted work.
        self.ejected = False

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.server.name

    @property
    def routable(self) -> bool:
        """Eligible for new traffic right now."""
        return self.state is NodeState.UP and not self.ejected

    @property
    def inflight(self) -> int:
        """Admitted and not yet completed (queued + dispatched)."""
        return self.server.queue.inflight

    @property
    def stats(self):
        return self.server.stats

    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Stop routing here; let admitted work finish."""
        self.state = NodeState.DRAINING

    def fail(self) -> int:
        """Fail-stop: unroutable plus the queued backlog is shed.

        Returns how many queued requests were dropped.  Idempotent: a
        host that is already DOWN has no backlog left to shed, so a
        repeated (or racing drain-then-fail) call must not re-drop —
        ``shed_queued`` on an empty queue is a no-op, but guarding here
        keeps the 0-return contract explicit."""
        if self.state is NodeState.DOWN:
            return 0
        self.state = NodeState.DOWN
        return self.server.shed_queued(reason="host_down")

    def restore(self) -> None:
        """Back in the rotation (after a drain or a repaired failure)."""
        self.state = NodeState.UP

    def __repr__(self) -> str:
        return (
            f"ClusterNode({self.name}, {self.state.value}, "
            f"inflight={self.inflight})"
        )
