"""The cluster front-end: N inference hosts, one kernel, one router.

A :class:`Cluster` is a fleet of :class:`~repro.serving.InferenceServer`
hosts — each with its own SSDs, caches, sharding plan and host resource
pools — sharing one :class:`~repro.sim.kernel.Simulator` behind a
front-end :class:`~repro.cluster.router.Router`.  It duck-types the
single-server surface the workload layer drives (``.sim``, ``.models``,
``.submit(model, batch, on_done=...)``, ``.stats.settled`` /
``.stats.when_settled``), so every
generator, scenario and trace in :mod:`repro.workload` runs against a
fleet unchanged.

Placement and replication: :meth:`register_model` places a model on a
subset of hosts (default: all).  The first placed host registers the
*original* :class:`~repro.models.base.RecModel`; every other host gets a
:func:`replica_model` clone whose tables share the original's data
and heat profile — the same
:meth:`~repro.embedding.table.EmbeddingTable.replica` a single server's
replicated workers use, so results are identical wherever a request
lands, and a 1-host cluster is bit-identical to the standalone server
(the oracle regression in ``tests/cluster/test_cluster_oracle.py``).
Placing a hot model on extra hosts is the table-replication knob; read
*spreading* within a placement is the router's job
(:class:`~repro.cluster.router.ConsistentHashRouter` ``spread``).

The submit path adds **zero** simulator events and **zero** RNG draws:
routing is a synchronous table lookup, then the chosen host's own
``submit`` runs as if called directly.  When no placed host is routable
(all draining/down), the request terminates at the router as REJECTED
with reason :data:`REASON_NO_HOST`, counted by
:class:`~repro.cluster.stats.ClusterStats` — it never consumed a host
admission slot, so per-host invariants are untouched.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence

from ..faults.tolerance import (
    REASON_HEDGE,
    REASON_TIMEOUT,
    HealthTracker,
    ToleranceConfig,
)
from ..models.base import Batch, RecModel
from ..models.runner import BackendKind, RunnerConfig
from ..serving.admission import REASON_CAPACITY, REASON_QUOTA
from ..serving.request import InferenceRequest, RequestState
from ..serving.server import InferenceServer
from .node import ClusterNode
from .router import Router
from .stats import ClusterStats

__all__ = ["REASON_NO_HOST", "replica_model", "Cluster"]

# Router-level rejection reason: no routable host for the model.
REASON_NO_HOST = "no_host"

# Attempt outcomes the tolerance layer may retry on an alternate host:
# transient admission pressure and host failures/timeouts.  A deadline
# verdict is final — the clock that killed it keeps running wherever the
# retry lands.
_RETRYABLE_REASONS = frozenset(
    {REASON_CAPACITY, REASON_QUOTA, REASON_TIMEOUT, "host_down"}
)


class _Attempt:
    """One host-level try of a logical request (primary, retry or hedge)."""

    __slots__ = ("node", "request", "is_hedge", "live", "timeout_handle")

    def __init__(self, node: ClusterNode, is_hedge: bool):
        self.node = node
        self.request: Optional[InferenceRequest] = None
        self.is_hedge = is_hedge
        self.live = True
        self.timeout_handle = None


class _Call:
    """One logical request flowing through the tolerance layer.

    Owns the attempt set (primary + retries + at most one hedge), the
    timers, and the exactly-once delivery to the caller's ``on_done``:
    the first attempt to complete wins, still-queued siblings are
    cancelled (reason :data:`~repro.faults.tolerance.REASON_HEDGE`), and
    dispatched siblings run to completion on their host but their result
    is discarded.  Every call delivers exactly one verdict — success or
    the last attempt's failure — so the workload layer's settled count
    (``ClusterStats.logical_settled``) always converges.
    """

    def __init__(self, cluster: "Cluster", model_name: str, batch: Batch,
                 key: int, on_done, deadline: Optional[float]):
        self.cluster = cluster
        self.model_name = model_name
        self.batch = batch
        self.key = key
        self.on_done = on_done
        self.deadline = deadline
        self.t_submit = cluster.sim.now
        self.done = False
        self.attempts: List[_Attempt] = []
        self.retries_used = 0
        self.hedge_issued = False
        self.hedge_handle = None

    # -- helpers -------------------------------------------------------
    @property
    def config(self) -> ToleranceConfig:
        return self.cluster.tolerance  # type: ignore[return-value]

    def _pick_node(self, exclude: Sequence[ClusterNode]) -> Optional[ClusterNode]:
        """Route among routable placed hosts, preferring ones not already
        carrying a live attempt of this call (the *alternate replica*)."""
        placed = self.cluster.placement[self.model_name]
        candidates = [
            n for n in placed if n.routable and n not in exclude
        ] or [n for n in placed if n.routable]
        if not candidates:
            return None
        return self.cluster.router.route(self.key, self.model_name, candidates)

    def _live_nodes(self) -> List[ClusterNode]:
        return [a.node for a in self.attempts if a.live]

    # -- attempt lifecycle ---------------------------------------------
    def start(self) -> InferenceRequest:
        """Launch the primary attempt (and arm the hedge timer)."""
        stats = self.cluster.stats
        stats.logical_submitted += 1
        node = self._pick_node(exclude=())
        if node is None:
            return self._deliver(self.cluster._router_reject(
                self.model_name, self.batch, on_done=None
            ))
        cfg = self.config
        if cfg.hedge_after_s is not None:
            self.hedge_handle = self.cluster.sim.schedule(
                cfg.hedge_after_s, self._fire_hedge
            )
        return self._launch(node, is_hedge=False)

    def _launch(self, node: ClusterNode, is_hedge: bool) -> InferenceRequest:
        attempt = _Attempt(node, is_hedge)
        self.attempts.append(attempt)
        cfg = self.config
        if cfg.timeout_s is not None:
            attempt.timeout_handle = self.cluster.sim.schedule(
                cfg.timeout_s, lambda: self._fire_timeout(attempt)
            )
        request = node.server.submit(
            self.model_name,
            self.batch,
            on_done=lambda req, a=attempt: self._attempt_done(a, req),
            deadline=self.deadline,
        )
        # A synchronous reject already ran _attempt_done (request unset
        # there is fine — it uses the callback argument); only stamp the
        # handle for still-live attempts.
        attempt.request = request
        return request

    def _fire_hedge(self) -> None:
        self.hedge_handle = None
        if self.done or self.hedge_issued:
            return
        node = self._pick_node(exclude=self._live_nodes())
        if node is None:
            return
        self.hedge_issued = True
        self.cluster.stats.hedges_dispatched += 1
        self._launch(node, is_hedge=True)

    def _fire_timeout(self, attempt: _Attempt) -> None:
        attempt.timeout_handle = None
        if self.done or not attempt.live:
            return
        stats = self.cluster.stats
        stats.timeouts += 1
        if self.cluster.health is not None:
            self.cluster.health.on_timeout(attempt.node.name)
        request = attempt.request
        if request is not None and request.state is RequestState.QUEUED:
            # Still waiting for dispatch: claw the attempt back; the
            # cancel's on_done re-enters _attempt_done with a retryable
            # DROPPED(timeout) verdict.
            attempt.node.server.cancel_queued(request, REASON_TIMEOUT)
            return
        # Dispatched: its device work cannot be cancelled, so leave it
        # racing and (budget permitting) dispatch a fresh attempt — a
        # *hedged retry*, counted as a retry.
        if self.retries_used < self.config.max_retries:
            node = self._pick_node(exclude=self._live_nodes())
            if node is not None:
                self.retries_used += 1
                stats.retries += 1
                self._launch(node, is_hedge=False)

    def _attempt_done(self, attempt: _Attempt, request: InferenceRequest) -> None:
        health = self.cluster.health
        if health is not None and request.state is RequestState.COMPLETE:
            # Late completions of losing attempts still carry a real
            # latency sample — the breaker wants every observation.
            health.observe(attempt.node.name, request.latency)
        if self.done:
            return
        attempt.live = False
        if attempt.timeout_handle is not None:
            attempt.timeout_handle.cancel()
            attempt.timeout_handle = None
        if request.state is RequestState.COMPLETE:
            self._deliver(request, winner=attempt)
            return
        # Failed attempt.  Retry when the failure is transient and the
        # budget allows; otherwise fall back to any sibling still racing,
        # and only then give up.
        stats = self.cluster.stats
        reason = request.drop_reason or ""
        retryable = reason in _RETRYABLE_REASONS
        if retryable and self.retries_used < self.config.max_retries:
            self.retries_used += 1
            stats.retries += 1
            delay = self.config.backoff_s * (2 ** (self.retries_used - 1))
            failed_node = attempt.node
            if delay > 0:
                self.cluster.sim.schedule(
                    delay, lambda: self._retry(failed_node, request)
                )
            else:
                self._retry(failed_node, request)
            return
        if any(a.live for a in self.attempts):
            return  # a sibling attempt is still racing; wait for it
        if retryable and self.config.max_retries > 0:
            stats.retries_exhausted += 1
        self._deliver(request)

    def _retry(self, failed_node: ClusterNode, failed_request: InferenceRequest) -> None:
        if self.done:
            return
        node = self._pick_node(exclude=[failed_node] + self._live_nodes())
        if node is None:
            if any(a.live for a in self.attempts):
                return
            self._deliver(failed_request)
            return
        self._launch(node, is_hedge=False)

    # -- delivery ------------------------------------------------------
    def _deliver(
        self, request: InferenceRequest, winner: Optional[_Attempt] = None
    ) -> InferenceRequest:
        if self.done:
            return request
        self.done = True
        stats = self.cluster.stats
        # Delivery happens synchronously at the winner's completion, so
        # now - t_submit is the latency the caller saw.
        stats.record_logical_settle(request, self.cluster.sim.now - self.t_submit)
        if self.hedge_handle is not None:
            self.hedge_handle.cancel()
            self.hedge_handle = None
        for attempt in list(self.attempts):
            if attempt.timeout_handle is not None:
                attempt.timeout_handle.cancel()
                attempt.timeout_handle = None
            if attempt is winner or not attempt.live:
                continue
            sibling = attempt.request
            if sibling is not None and sibling.state is RequestState.QUEUED:
                # Synchronous cancel re-enters _attempt_done, which
                # no-ops now that the call is done.
                attempt.node.server.cancel_queued(sibling, REASON_HEDGE)
        if self.hedge_issued:
            if winner is not None and winner.is_hedge:
                stats.hedges_won += 1
            else:
                stats.hedges_lost += 1
        if self.on_done is not None:
            self.on_done(request)
        return request


def replica_model(model: RecModel) -> RecModel:
    """A shallow clone of ``model`` whose tables are
    :meth:`~repro.embedding.table.EmbeddingTable.replica` copies.

    Each host registers its own :class:`RecModel` instance (a server
    refuses duplicate registrations, and per-host backends are built
    from the instance's tables), but the *values* — and, under a
    frequency layout, the heat profile that packs them — must match
    across the fleet: the same rule a single server applies to its
    replicated workers.
    """
    clone = copy.copy(model)
    clone.tables = {name: table.replica() for name, table in model.tables.items()}
    return clone


class Cluster:
    """A routed fleet of inference hosts on one shared sim kernel."""

    def __init__(
        self,
        nodes: Sequence[InferenceServer],
        router: Router,
        tolerance: Optional[ToleranceConfig] = None,
    ):
        if not nodes:
            raise ValueError("cluster needs at least one host")
        sims = {id(server.sim) for server in nodes}
        if len(sims) != 1:
            raise ValueError("all cluster hosts must share one sim kernel")
        names = [server.name for server in nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"host names must be unique, got {names}")
        self.sim = nodes[0].sim
        self.nodes: List[ClusterNode] = [
            ClusterNode(server) for server in nodes
        ]
        self.router = router
        self.stats = ClusterStats(self.sim, self.nodes)
        # Tail tolerance (repro.faults.tolerance).  None — the default —
        # keeps the zero-event, zero-RNG submit path bit-identical to
        # the pre-fault-layer cluster; a ToleranceConfig switches submit
        # to the retry/hedge state machine and settled accounting to
        # logical requests.
        self.tolerance = tolerance
        self.stats.tolerance_active = tolerance is not None
        self.health: Optional[HealthTracker] = None
        if tolerance is not None and tolerance.breaker is not None:
            self.health = HealthTracker(
                self.sim, self.nodes, tolerance.breaker, stats=self.stats
            )
        self.models: Dict[str, RecModel] = {}
        # model -> the ClusterNodes it is placed on (placement order).
        self.placement: Dict[str, List[ClusterNode]] = {}
        # Routing key for anonymous batches (no user_id): a fleet-wide
        # submission sequence number, so hash routing still spreads them.
        self._next_key = 0

    # ------------------------------------------------------------------
    # Hosts
    # ------------------------------------------------------------------
    def node(self, host: str) -> ClusterNode:
        for candidate in self.nodes:
            if candidate.name == host:
                return candidate
        raise KeyError(
            f"no host {host!r} (have {[n.name for n in self.nodes]})"
        )

    def drain(self, host: str) -> None:
        """Take ``host`` out of the rotation; admitted work finishes."""
        self.node(host).drain()

    def fail(self, host: str) -> int:
        """Fail-stop ``host``; returns how many queued requests it shed
        (each DROPPED with reason ``host_down``)."""
        return self.node(host).fail()

    def restore(self, host: str) -> None:
        self.node(host).restore()

    # ------------------------------------------------------------------
    # Model placement
    # ------------------------------------------------------------------
    def register_model(
        self,
        model: RecModel,
        kind: BackendKind,
        runner_config: Optional[RunnerConfig] = None,
        num_workers: int = 1,
        sharding=None,
        hosts: Optional[Sequence[int]] = None,
    ) -> None:
        """Place ``model`` on ``hosts`` (indices; default all).

        Per host this is exactly a standalone ``register_model`` — its
        own workers/devices/sharding plan — with the first placed host
        holding the original model and the rest :func:`replica_model`
        clones sharing its table data.  Placing a hot model on more
        hosts is the replication knob the router's read spreading then
        exploits.
        """
        if model.name in self.models:
            raise ValueError(f"model {model.name!r} already registered")
        indices = list(range(len(self.nodes))) if hosts is None else list(hosts)
        if not indices:
            raise ValueError(f"model {model.name!r} placed on no hosts")
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate placement for {model.name!r}")
        for index in indices:
            if not 0 <= index < len(self.nodes):
                raise ValueError(
                    f"placement host {index} out of range for "
                    f"{len(self.nodes)} hosts"
                )
        placed: List[ClusterNode] = []
        for order, index in enumerate(indices):
            node = self.nodes[index]
            instance = model if order == 0 else replica_model(model)
            node.server.register_model(
                instance,
                kind,
                runner_config=runner_config,
                num_workers=num_workers,
                sharding=sharding,
            )
            placed.append(node)
        self.models[model.name] = model
        self.placement[model.name] = placed

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(
        self,
        model_name: str,
        batch: Batch,
        on_done=None,
        deadline: Optional[float] = None,
    ) -> InferenceRequest:
        """Route one request to a host and submit it there.

        Synchronous and side-effect-free beyond the chosen host's own
        ``submit`` (no extra sim events, no RNG): a 1-host cluster is
        bit-identical to calling the server directly.  The routing key
        is ``batch.user_id`` when present (locality-aware policies hash
        it), else a fleet-wide submission counter.
        """
        nodes = self.placement.get(model_name)
        if nodes is None:
            raise KeyError(f"model {model_name!r} not registered")
        if batch.user_id is not None:
            key = batch.user_id
        else:
            key = self._next_key
            self._next_key += 1
        if self.tolerance is not None:
            call = _Call(self, model_name, batch, key, on_done, deadline)
            return call.start()
        tracer = self.sim.tracer
        if not any(node.routable for node in nodes):
            request = self._router_reject(model_name, batch, on_done)
            if tracer is not None:
                # Pure list append on the tracer — routing stays
                # zero-event / zero-RNG with tracing on.
                tracer.event(
                    "route", model=model_name, key=key, host=None, rejected=True
                )
            if request.on_done is not None:
                request.on_done(request)
            return request
        node = self.router.route(key, model_name, nodes)
        if tracer is not None:
            tracer.event("route", model=model_name, key=key, host=node.name)
        return node.server.submit(
            model_name, batch, on_done=on_done, deadline=deadline
        )

    def _router_reject(
        self, model_name: str, batch: Batch, on_done
    ) -> InferenceRequest:
        """Terminate a submission at the router: REJECTED without
        touching any host, accounted fleet-side so conservation still
        holds.  The caller owns the ``on_done`` notification."""
        request = InferenceRequest(
            model=model_name,
            batch=batch,
            request_id=-1,
            t_arrival=self.sim.now,
            user_id=batch.user_id,
            on_done=on_done,
        )
        request.state = RequestState.REJECTED
        request.drop_reason = REASON_NO_HOST
        request.t_done = self.sim.now
        self.stats.record_router_reject(request)
        return request

    # ------------------------------------------------------------------
    # Driving / stats
    # ------------------------------------------------------------------
    def run_until_settled(self, limit: float = float("inf")) -> float:
        """Advance the shared kernel until no host has admitted work in
        flight."""
        return self.sim.run_until(
            lambda: all(n.server.queue.inflight == 0 for n in self.nodes),
            limit,
        )

    def reset_stats(self) -> None:
        """One reset for the whole fleet: every host's window, the
        router's counters and the cluster-level gauges."""
        for node in self.nodes:
            node.server.stats.reset_stats()
        self.router.reset_stats()
        self.stats.reset_stats()

    def __repr__(self) -> str:
        return (
            f"Cluster(hosts={[n.name for n in self.nodes]}, "
            f"router={self.router!r}, models={sorted(self.models)})"
        )
