"""Fleet-wide serving metrics: per-host stats rolled into cluster totals.

:class:`ClusterStats` owns what no single host can account for —
router-level rejections, i.e. requests that never reached a host because
no routable one existed (reason ``no_host``) — and counts the fleet's
``submitted`` / ``completed`` / ``rejected`` / ``dropped`` **as they
happen**: it joins every host's ``recorders`` and hears the same four
``record_*`` calls as the host's own
:class:`~repro.serving.stats.ServingStats`, so reading a fleet total, or
waiting for the fleet to settle, is O(1) rather than a sum over hosts.
Fleet and host windows agree while they are reset together
(``Cluster.reset_stats()``; ``tests/cluster/test_fleet_counters.py``).
It also owns the tolerance layer's logical view (including which latency
population :meth:`ClusterStats.latencies` returns), the fleet-only
``summary()`` keys and ``tolerance_summary()``.
The fleet invariant

::

    submitted == completed + rejected + dropped + inflight

holds whenever every host's does (router rejections count as
submitted-and-rejected, mirroring how a single server accounts admission
rejects), and ``tests/cluster`` audits exactly that through drains and
failures.

**A fleet is its hosts, merged.**  Every other number — percentiles,
busy span, throughput, goodput, cache hit rate, lane table, the headline
``summary()`` keys — is the definition in :mod:`repro.serving.stats`
applied, on read, to the hosts' windows in node order; this module holds
no copy of a formula.  So fleet percentiles are over the *merged*
latency population — the number a fleet-wide SLO is written against, not
an average of per-host percentiles, which would understate the tail of
an imbalanced fleet — and the fleet cache hit rate is lookup-weighted,
``sum(hits) / sum(lookups)`` across hosts, the locality metric
consistent-hash routing is judged on in ``benchmarks/bench_cluster.py``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..serving.request import InferenceRequest, RequestState
from ..serving import stats as host_stats
from ..serving.stats import SettleSignal
from ..sim.resettable import register_resettable
from .node import ClusterNode

__all__ = ["ClusterStats"]


class ClusterStats(SettleSignal):
    """Cluster-level accounting over a fixed set of nodes.

    Public attributes are resettable counters (the PR-5 stats contract:
    ``reset_stats()`` makes the object indistinguishable from a fresh
    one); ``sim`` and the underscore-prefixed node list are wiring, not
    stats.
    """

    def __init__(self, sim, nodes: Sequence[ClusterNode]):
        self.sim = sim
        self._nodes = list(nodes)
        # The hosts' windows in node order — what every derived metric
        # in repro.serving.stats is applied to.
        self._windows = [node.stats for node in self._nodes]
        # Wiring, not a counter: True while the cluster front-end runs
        # with a ToleranceConfig, switching ``settled`` to logical
        # (per-call) accounting — retried/hedged attempts are extra
        # *host* submissions for one *logical* request, so the host-sum
        # formula would overcount the workload's stop predicate.
        self.tolerance_active = False
        self._settle_watch = None
        self.reset_stats()
        register_resettable(self)
        for node in self._nodes:
            node.server.recorders.append(self)

    def reset_stats(self) -> None:
        """Discard the cluster-level window (router rejections plus the
        tolerance layer's retry/hedge/breaker counters).

        Per-host windows are NOT touched here — the cluster front-end's
        ``reset_stats`` cascades to hosts and router explicitly, so each
        layer keeps the single-owner reset rule.
        """
        self.router_rejected = 0
        self.rejects_by_reason: Dict[str, int] = {}
        # Fleet arrivals / terminals (router rejections included).
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.dropped = 0
        # Tail tolerance (repro.faults.tolerance) — all zero unless the
        # cluster runs with a ToleranceConfig.
        self.logical_submitted = 0   # logical requests entering the router
        self.logical_settled = 0     # logical requests with a final verdict
        self.logical_completed = 0   # logical requests delivered a result
        self.logical_failed = 0      # logical requests delivered a failure
        # Submit-to-winning-completion time per completed logical request
        # — the latency a caller actually saw, excluding losing hedge /
        # retry attempts that completed late on a sick host.
        self.logical_latencies: List[float] = []
        self.timeouts = 0            # attempts abandoned past timeout_s
        self.retries = 0             # re-dispatches after a retryable failure
        self.retries_exhausted = 0   # logical requests whose budget ran out
        self.hedges_dispatched = 0   # speculative second copies issued
        self.hedges_won = 0          # logical requests the hedge completed
        self.hedges_lost = 0         # hedges whose primary finished first
        self.breaker_ejections = 0   # hosts ejected by the health tracker
        self.breaker_probes = 0      # half-open probe admissions
        self.breaker_restores = 0    # probes that closed the breaker again

    # ------------------------------------------------------------------
    # Recording (called by the cluster front-end and by every host)
    # ------------------------------------------------------------------
    def record_router_reject(self, request: InferenceRequest) -> None:
        """A submission found no routable host and terminated at the
        router (it never consumed any host's admission slot)."""
        self.router_rejected += 1
        reason = request.drop_reason or "no_host"
        self.rejects_by_reason[reason] = (
            self.rejects_by_reason.get(reason, 0) + 1
        )
        self.record_reject(request)

    # The InferenceServer.recorders protocol, called by every host.
    def record_arrival(self, request: InferenceRequest) -> None:
        self.submitted += 1

    def record_reject(self, request: InferenceRequest) -> None:
        self.submitted += 1
        self.rejected += 1
        self._settle()

    def record_drop(self, request: InferenceRequest) -> None:
        self.dropped += 1
        self._settle()

    def record_completion(self, request: InferenceRequest) -> None:
        self.completed += 1
        self._settle()

    def record_logical_settle(self, request: InferenceRequest, latency: float) -> None:
        """Tolerance layer: one logical request got its final verdict,
        ``latency`` seconds after the caller submitted it."""
        self.logical_settled += 1
        if request.state is RequestState.COMPLETE:
            self.logical_completed += 1
            self.logical_latencies.append(latency)
        else:
            self.logical_failed += 1
        self._settle()

    # ------------------------------------------------------------------
    # Fleet aggregates (computed from the per-host stats on read)
    # ------------------------------------------------------------------
    def _sum(self, attr: str) -> int:
        return sum(getattr(w, attr) for w in self._windows)

    @property
    def inflight(self) -> int:
        return self._sum("inflight")

    @property
    def goodput(self) -> int:
        return self._sum("goodput")

    @property
    def degraded(self) -> int:
        """Completed-but-partial requests fleet-wide (down shards)."""
        return self._sum("degraded")

    @property
    def missing_bags(self) -> int:
        return self._sum("missing_bags")

    @property
    def settled(self) -> int:
        """Terminal requests fleet-wide (what ``run_workload`` waits on;
        router rejections settle instantly).

        With tolerance active this is the *logical* count: one per
        router-level request, however many host attempts (retries,
        hedges) it took — the host-sum formula would count each attempt.
        """
        if self.tolerance_active:
            return self.logical_settled
        return self.completed + self.rejected + self.dropped

    # ------------------------------------------------------------------
    def latencies(self) -> List[float]:
        """The latency population the fleet SLO is judged on (seconds).

        Host-merged completions normally; with tolerance active, the
        *logical* view — submit to first winning completion per logical
        request — because losing hedge/retry attempts still complete
        (late) on their sick host and would otherwise pollute the fleet
        tail with latencies no caller ever waited on.
        """
        if self.tolerance_active:
            return list(self.logical_latencies)
        return [latency for w in self._windows for latency in w.latencies]

    # A fleet is its hosts, merged: each number below is the host
    # definition applied to the hosts' windows.
    def percentile(self, q: float) -> float:
        return host_stats.latency_quantile(self.latencies(), q)

    def total_lookups(self) -> float:
        return host_stats.shard_total(self._windows, "shard_lookups")

    def total_cache_hits(self) -> float:
        return host_stats.shard_total(self._windows, "shard_cache_hits")

    def cache_hit_rate(self) -> float:
        return host_stats.cache_hit_rate(self._windows)

    def busy_span(self) -> float:
        return host_stats.busy_span(self._windows)

    def throughput_rps(self) -> float:
        return host_stats.rate_rps(self.completed, self._windows)

    def goodput_rps(self) -> float:
        return host_stats.rate_rps(self.goodput, self._windows)

    def lane_summary(self) -> Dict[str, Dict[str, float]]:
        return host_stats.lane_summary(self._windows)

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Fleet headline numbers — the keys a single server's
        :meth:`~repro.serving.stats.ServingStats.summary` shares with a
        fleet (so cluster and standalone results compare
        column-for-column), plus fleet-only gauges."""
        return {
            **host_stats.headline_summary(self, self._windows, self.latencies()),
            "hosts": float(len(self._nodes)),
            "router_rejected": float(self.router_rejected),
            "cache_hit_rate": self.cache_hit_rate(),
        }

    def tolerance_summary(self) -> Dict[str, float]:
        """Tail-tolerance and degradation gauges, reported separately
        from :meth:`summary` so healthy-run outputs stay byte-identical
        to pre-fault-layer results."""
        return {
            "logical_submitted": float(self.logical_submitted),
            "logical_settled": float(self.logical_settled),
            "logical_completed": float(self.logical_completed),
            "logical_failed": float(self.logical_failed),
            "timeouts": float(self.timeouts),
            "retries": float(self.retries),
            "retries_exhausted": float(self.retries_exhausted),
            "hedges_dispatched": float(self.hedges_dispatched),
            "hedges_won": float(self.hedges_won),
            "hedges_lost": float(self.hedges_lost),
            "breaker_ejections": float(self.breaker_ejections),
            "breaker_probes": float(self.breaker_probes),
            "breaker_restores": float(self.breaker_restores),
            "degraded": float(self.degraded),
            "missing_bags": float(self.missing_bags),
        }

    def __repr__(self) -> str:
        return (
            f"ClusterStats(hosts={len(self._nodes)}, "
            f"completed={self.completed}, inflight={self.inflight}, "
            f"router_rejected={self.router_rejected})"
        )
