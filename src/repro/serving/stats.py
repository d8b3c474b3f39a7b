"""Serving-layer metrics: tail latency percentiles, throughput, goodput.

Latency-bounded throughput is the paper's serving framing (Section 2;
RecNMP/MicroRec make the same argument): a deployment provisions to a
p95/p99 SLA, not to mean latency.  :class:`ServingStats` therefore keeps
every completed request's latency (exact percentiles, not bucketed
approximations) alongside throughput and concurrency gauges — and, for
QoS runs (:mod:`repro.serving.admission`), **goodput**: requests
completed *within* their deadline, the metric admission policies trade
raw throughput against.

The core invariant, preserved through every admission path and audited
by ``tests/serving/test_admission.py``::

    submitted == completed + rejected + dropped + inflight

Recording is per host (:class:`ServingStats`, one window per server);
every *derived* number is defined once, at the bottom of this module,
over a sequence of host windows — a host applies it to ``[self]``, a
fleet (:class:`repro.cluster.stats.ClusterStats`) to its hosts' windows
— and every percentile is a sample picked by
:func:`repro.sim.stats.rank_quantile`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.resettable import register_resettable
from ..sim.stats import Accumulator, rank_quantile, summarize_latencies
from .request import InferenceRequest

__all__ = [
    "ServingStats",
    "SettleSignal",
    "mean_ms",
    "latency_quantile",
    "shard_total",
    "cache_hit_rate",
    "busy_span",
    "rate_rps",
    "headline_summary",
    "lane_summary",
]


def mean_ms(values_s: List[float]) -> float:
    """Mean of a list of seconds, in milliseconds (0.0 when empty) — the
    one definition both ``ServingStats.summary`` and
    ``HostResourceModel.summary`` report wait times with."""
    return sum(values_s) / len(values_s) * 1e3 if values_s else 0.0


class SettleSignal:
    """Completion signal over a stats object's ``settled`` count.

    ``run_workload`` arms it instead of polling ``settled`` after every
    event; the owner calls :meth:`_settle` wherever it records a terminal
    transition.  The armed watch is live wiring like ``inflight``: it
    survives ``reset()`` and is ``None`` whenever no run is waiting.
    """

    _settle_watch: Optional[Tuple[int, Callable[[], None]]]

    def when_settled(self, target: int, fire: Callable[[], None]) -> None:
        """Call ``fire()`` once ``settled >= target`` (now, if it already
        is).  One watch at a time."""
        self._settle_watch = (target, fire)
        self._settle()

    def _settle(self) -> None:
        watch = self._settle_watch
        if watch is not None and self.settled >= watch[0]:
            self._settle_watch = None
            watch[1]()


class ServingStats(SettleSignal):
    """Per-request latency and throughput accounting for one server."""

    def __init__(self, sim):
        self.sim = sim
        self.inflight = 0
        self._settle_watch = None
        self.reset()
        register_resettable(self)

    def reset(self) -> None:
        """Discard all recorded history (e.g. benchmark warm-up batches).

        In-flight requests keep being tracked: their completions after a
        reset decrement ``inflight`` but are counted (and their latencies
        recorded) in the fresh window, so back-to-back benchmark
        iterations don't inherit warm-up counts.

        Every recorded counter — including the per-model, per-reason and
        per-shard maps — is (re)initialized here and only here, so a
        reset object is indistinguishable from a fresh one modulo the
        live ``inflight`` gauge (``tests/serving/test_sharding.py`` and
        ``tests/serving/test_admission.py`` audit exactly that).
        """
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.dropped = 0
        self.goodput = 0            # completed within deadline
        self.deadline_misses = 0    # completed, but late
        self.max_inflight = self.inflight
        self.batches_dispatched = 0
        self.requests_per_batch = Accumulator()
        self.latencies: List[float] = []
        self.queue_delays: List[float] = []
        self.emb_latencies: List[float] = []
        # Arrival-to-shed waits of DROPPED requests (``t_drop`` stamps).
        # Kept apart from ``queue_delays``/``latencies`` on purpose: a
        # dropped request never had a service phase, and folding its
        # wait into the completed-request histograms would drag p50
        # around under heavy shedding (see ``latency_breakdown``).
        self.drop_waits: List[float] = []
        # Admitted-request arrival stamps: the realized arrival process
        # (repro.traces.analysis.interarrival_stats characterizes it, and
        # an ArrivalTrace built from it replays the run).
        self.arrival_times: List[float] = []
        self.first_arrival: Optional[float] = None
        self.last_completion: Optional[float] = None
        # Per-model (per-lane) breakdowns: every terminal path and the
        # goodput split, plus raw per-lane latencies for lane_summary().
        self.submitted_by_model: Dict[str, int] = {}
        self.completed_by_model: Dict[str, int] = {}
        self.rejected_by_model: Dict[str, int] = {}
        self.dropped_by_model: Dict[str, int] = {}
        self.goodput_by_model: Dict[str, int] = {}
        self.latencies_by_model: Dict[str, List[float]] = {}
        # Shed-reason breakdowns (admission.REASON_* keys).
        self.rejects_by_reason: Dict[str, int] = {}
        self.drops_by_reason: Dict[str, int] = {}
        # Per-shard (per-device) embedding-work breakdowns, keyed
        # model -> shard index.  Populated for every dispatch mode: a
        # replicate worker's whole batch lands on its device's shard
        # entry; a scatter-gather batch credits every shard it touched.
        self.shard_batches: Dict[str, Dict[int, int]] = {}
        self.shard_sub_ops: Dict[str, Dict[int, int]] = {}
        self.shard_lookups: Dict[str, Dict[int, float]] = {}
        self.shard_busy_s: Dict[str, Dict[int, float]] = {}
        # Embedding-cache hits credited per shard: host LRU hits (SSD
        # backend), device emb-cache + host partition hits (NDP backend).
        # Together with shard_lookups this yields the served cache hit
        # rate — the locality metric cluster routing is judged on.
        self.shard_cache_hits: Dict[str, Dict[int, float]] = {}
        # Host resource model gauges (repro.serving.hostpool): the SLS
        # worker pool driving per-table gathers / NDP split-merge, and
        # the dense-stage NN worker pool.  Wait lists are per granted
        # acquisition / per dense job; busy seconds are worker-seconds
        # held (SLS) or summed service time (dense).  Peaks rebuild from
        # the next grant after a mid-flight reset, mirroring the
        # ``max_inflight`` window semantics.
        self.sls_ops = 0
        self.sls_wait_s: List[float] = []
        self.sls_busy_s = 0.0
        self.sls_peak_in_use = 0
        self.sls_peak_queue = 0
        self.dense_jobs = 0
        self.dense_wait_s: List[float] = []
        self.dense_wait_s_by_model: Dict[str, List[float]] = {}
        self.dense_busy_s = 0.0
        # Fault / degradation accounting (repro.faults): completed
        # requests served partially because a shard's device was down,
        # their total missing (bag, table) pairs, embedding rows/pages
        # lost to uncorrectable flash reads, and SLS ops the NDP backend
        # re-routed through the host path after an engine crash.  All
        # stay zero under healthy operation.
        self.degraded = 0
        self.missing_bags = 0
        self.uncorrectable_rows = 0.0
        self.uncorrectable_pages = 0.0
        self.ndp_fallbacks = 0
        # Tail tolerance (server side): queued requests cancelled by a
        # router timeout before dispatch.
        self.timeout_cancels = 0
        # Live embedding updates (repro.serving.updates): device page
        # writes this server's registrations issued and completed.  The
        # engine's summary() has the rest of the update gauges.  Both
        # stay zero for read-only scenarios.
        self.update_pages_written = 0
        self.update_writes_completed = 0

    # PR 2's unified stats contract: every component with counters
    # exposes ``reset_stats()``; for ServingStats it is the same window
    # reset (the in-flight gauge keeps tracking live requests).
    def reset_stats(self) -> None:
        self.reset()

    # ------------------------------------------------------------------
    # Recording (called by the server/scheduler)
    # ------------------------------------------------------------------
    @staticmethod
    def _bump(store: Dict[str, int], key: str, by: int = 1) -> None:
        store[key] = store.get(key, 0) + by

    def record_arrival(self, request: InferenceRequest) -> None:
        self.submitted += 1
        self.inflight += 1
        self._bump(self.submitted_by_model, request.model)
        self.arrival_times.append(request.t_arrival)
        if self.inflight > self.max_inflight:
            self.max_inflight = self.inflight
        if self.first_arrival is None:
            self.first_arrival = request.t_arrival

    def record_reject(self, request: InferenceRequest) -> None:
        # Rejected requests count as submitted (but never in flight), so
        # submitted == completed + rejected + dropped + inflight holds.
        self.submitted += 1
        self.rejected += 1
        self._bump(self.submitted_by_model, request.model)
        self._bump(self.rejected_by_model, request.model)
        self._bump(self.rejects_by_reason, request.drop_reason or "capacity")
        self._settle()

    def record_drop(self, request: InferenceRequest) -> None:
        """An *admitted* request was shed before dispatch (QoS drop)."""
        self.dropped += 1
        self.inflight -= 1
        self._bump(self.dropped_by_model, request.model)
        self._bump(self.drops_by_reason, request.drop_reason or "deadline")
        if request.t_drop >= 0:
            self.drop_waits.append(request.drop_wait)
        self._settle()

    def record_dispatch(self, requests: List[InferenceRequest]) -> None:
        self.batches_dispatched += 1
        self.requests_per_batch.add(float(len(requests)))

    def record_shard_work(
        self,
        model: str,
        shard: int,
        lookups: float,
        sub_ops: int,
        busy_s: float,
        cache_hits: float = 0.0,
    ) -> None:
        """Credit one coalesced batch's embedding work to one shard.

        ``sub_ops`` is the number of per-table SLS operations the shard
        ran for the batch; ``busy_s`` the simulated span from the
        shard's first op start to its last op end; ``cache_hits`` the
        lookups the shard's embedding caches served without device work.
        """
        for store, value in (
            (self.shard_batches, 1),
            (self.shard_sub_ops, sub_ops),
            (self.shard_lookups, lookups),
            (self.shard_busy_s, busy_s),
            (self.shard_cache_hits, cache_hits),
        ):
            per_model = store.setdefault(model, {})
            per_model[shard] = per_model.get(shard, 0) + value

    # -- host resource model (repro.serving.hostpool) ------------------
    def record_sls_grant(self, wait_s: float, in_use: int) -> None:
        """A host SLS worker was granted after ``wait_s`` of queueing."""
        self.sls_ops += 1
        self.sls_wait_s.append(wait_s)
        if in_use > self.sls_peak_in_use:
            self.sls_peak_in_use = in_use

    def record_sls_release(self, held_s: float) -> None:
        self.sls_busy_s += held_s

    def record_sls_queue_depth(self, depth: int) -> None:
        if depth > self.sls_peak_queue:
            self.sls_peak_queue = depth

    def record_dense_job(
        self, model: str, wait_s: float, service_s: float
    ) -> None:
        """One dense-stage job started after ``wait_s`` in the pool queue."""
        self.dense_jobs += 1
        self.dense_wait_s.append(wait_s)
        self.dense_wait_s_by_model.setdefault(model, []).append(wait_s)
        self.dense_busy_s += service_s

    def record_completion(self, request: InferenceRequest) -> None:
        self.completed += 1
        self.inflight -= 1
        self.latencies.append(request.latency)
        self.queue_delays.append(request.queue_delay)
        if request.t_emb_done >= 0:
            self.emb_latencies.append(request.t_emb_done - request.t_dispatch)
        if request.degraded:
            self.degraded += 1
            self.missing_bags += request.missing_bags
        model = request.model
        self._bump(self.completed_by_model, model)
        self.latencies_by_model.setdefault(model, []).append(request.latency)
        if request.within_deadline:
            self.goodput += 1
            self._bump(self.goodput_by_model, model)
        else:
            self.deadline_misses += 1
        self.last_completion = request.t_done
        self._settle()

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def settled(self) -> int:
        """Requests that reached a terminal state (complete, rejected or
        dropped)."""
        return self.completed + self.rejected + self.dropped

    # Each derived number below is the shared definition at the bottom
    # of this module applied to this one window.
    def total_lookups(self) -> float:
        return shard_total([self], "shard_lookups")

    def total_cache_hits(self) -> float:
        return shard_total([self], "shard_cache_hits")

    def cache_hit_rate(self) -> float:
        return cache_hit_rate([self])

    def percentile(self, q: float) -> float:
        return latency_quantile(self.latencies, q)

    def busy_span(self) -> float:
        return busy_span([self])

    def throughput_rps(self) -> float:
        """Completed requests per simulated second over the busy interval."""
        return rate_rps(self.completed, [self])

    def goodput_rps(self) -> float:
        """Within-deadline completions per simulated second."""
        return rate_rps(self.goodput, [self])

    def summary(self) -> Dict[str, float]:
        """Headline numbers (latencies in milliseconds)."""
        return {
            **headline_summary(self, [self], self.latencies),
            "max_inflight": float(self.max_inflight),
            "mean_batch_requests": self.requests_per_batch.mean,
            # Host resource model: time spent waiting for a dense NN
            # worker / a host SLS worker (0.0 with unbounded pools).
            "mean_dense_wait_ms": mean_ms(self.dense_wait_s),
            "mean_sls_wait_ms": mean_ms(self.sls_wait_s),
        }

    def latency_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Queue-wait vs. service split, with drops held apart.

        ``completed`` decomposes each finished request's latency into
        queue wait (``t_dispatch - t_arrival``) and service time
        (dispatch to done); ``dropped`` reports only the shed waits
        (``t_drop - t_arrival``) — dropped requests never reach service
        and are excluded from the service-time histogram entirely.
        Separate from :meth:`summary`, whose key set the serving golden
        pins.
        """
        service_s = [
            latency - wait
            for latency, wait in zip(self.latencies, self.queue_delays)
        ]
        queue_sorted = sorted(self.queue_delays)
        service_sorted = sorted(service_s)
        drop_sorted = sorted(self.drop_waits)
        return {
            "completed": {
                "count": float(self.completed),
                "mean_queue_ms": mean_ms(self.queue_delays),
                "p50_queue_ms": rank_quantile(queue_sorted, 0.50) * 1e3,
                "p99_queue_ms": rank_quantile(queue_sorted, 0.99) * 1e3,
                "mean_service_ms": mean_ms(service_s),
                "p50_service_ms": rank_quantile(service_sorted, 0.50) * 1e3,
                "p99_service_ms": rank_quantile(service_sorted, 0.99) * 1e3,
            },
            "dropped": {
                "count": float(self.dropped),
                "waits_recorded": float(len(self.drop_waits)),
                "mean_wait_ms": mean_ms(self.drop_waits),
                "p50_wait_ms": rank_quantile(drop_sorted, 0.50) * 1e3,
                "max_wait_ms": drop_sorted[-1] * 1e3 if drop_sorted else 0.0,
            },
        }

    def lane_summary(self) -> Dict[str, Dict[str, float]]:
        return lane_summary([self])

    def shard_summary(self) -> Dict[str, Dict[int, Dict[str, float]]]:
        """Per-model, per-shard work breakdown: batches, SLS ops, lookups,
        busy seconds.  Empty until the scheduler has dispatched work."""
        out: Dict[str, Dict[int, Dict[str, float]]] = {}
        for model, per_shard in self.shard_batches.items():
            out[model] = {}
            for shard in sorted(per_shard):
                out[model][shard] = {
                    "batches": float(self.shard_batches[model][shard]),
                    "sub_ops": float(self.shard_sub_ops[model][shard]),
                    "lookups": float(self.shard_lookups[model][shard]),
                    "busy_s": float(self.shard_busy_s[model][shard]),
                    "cache_hits": float(
                        self.shard_cache_hits.get(model, {}).get(shard, 0.0)
                    ),
                }
        return out

    def __repr__(self) -> str:
        s = self.summary()
        return (
            f"ServingStats(completed={self.completed}, "
            f"tput={s['throughput_rps']:.1f}rps, p50={s['p50_ms']:.2f}ms, "
            f"p95={s['p95_ms']:.2f}ms, p99={s['p99_ms']:.2f}ms)"
        )


# ----------------------------------------------------------------------
# Derived metrics, defined once over a sequence of host windows
# ----------------------------------------------------------------------
# Sums run window by window in sequence order, so ``[self]`` reproduces
# the host's own float results bit for bit.


def latency_quantile(latencies_s: List[float], q: float) -> float:
    """Exact quantile ``q`` in [0, 1] of a latency population, in seconds
    (:func:`~repro.sim.stats.rank_quantile`, the only rank rule)."""
    return rank_quantile(sorted(latencies_s), q)


def shard_total(windows: Sequence[ServingStats], attr: str) -> float:
    """One per-shard map (``shard_lookups``: embedding lookups served;
    ``shard_cache_hits``: those the host LRU, device emb-cache or NDP
    partition absorbed) summed across all hosts, models and shards."""
    return sum(
        sum(sum(per_shard.values()) for per_shard in getattr(w, attr).values())
        for w in windows
    )


def cache_hit_rate(windows: Sequence[ServingStats]) -> float:
    """Lookup-weighted cache-served fraction of all embedding lookups
    (0.0 when no lookups were dispatched or no cache is configured)."""
    lookups = shard_total(windows, "shard_lookups")
    return shard_total(windows, "shard_cache_hits") / lookups if lookups > 0 else 0.0


def busy_span(windows: Sequence[ServingStats]) -> float:
    """Earliest arrival to latest completion (the throughput/utilization
    window); 0.0 before any arrival, and up to now while nothing has
    completed."""
    firsts = [w.first_arrival for w in windows if w.first_arrival is not None]
    if not firsts:
        return 0.0
    lasts = [w.last_completion for w in windows if w.last_completion is not None]
    last = max(lasts) if lasts else windows[0].sim.now
    return last - min(firsts)


def rate_rps(count: int, windows: Sequence[ServingStats]) -> float:
    """``count`` requests per simulated second over the busy span."""
    span = busy_span(windows)
    return count / span if span > 0 else 0.0


def headline_summary(
    counts, windows: Sequence[ServingStats], latencies_s: List[float]
) -> Dict[str, float]:
    """The keys a host and a fleet summary share (latencies in ms).

    ``counts`` owns ``goodput`` and the as-they-happen ``submitted`` /
    ``completed`` / ``rejected`` / ``dropped`` counters — the host window
    itself, or the fleet's ``ClusterStats`` (whose counts include router
    rejections); ``latencies_s`` is the population the SLO is judged on
    (a fleet under tail tolerance passes its logical view).

    Requests without an SLO deadline (``deadline == inf``) always
    complete in time, so for no-QoS runs goodput equals throughput.
    """
    lat = summarize_latencies(latencies_s)
    return {
        "submitted": float(counts.submitted),
        "completed": float(counts.completed),
        "rejected": float(counts.rejected),
        "dropped": float(counts.dropped),
        "goodput": float(counts.goodput),
        "throughput_rps": rate_rps(counts.completed, windows),
        "goodput_rps": rate_rps(counts.goodput, windows),
        "mean_ms": lat["mean_ms"],
        "p50_ms": lat["p50_ms"],
        "p95_ms": lat["p95_ms"],
        "p99_ms": lat["p99_ms"],
        "max_ms": lat["max_ms"],
        "mean_queue_delay_ms": mean_ms(
            [delay for w in windows for delay in w.queue_delays]
        ),
    }


_LANE_COUNTS = ("submitted", "completed", "rejected", "dropped", "goodput")


def lane_summary(windows: Sequence[ServingStats]) -> Dict[str, Dict[str, float]]:
    """Per-model (per-lane/tenant) QoS breakdown, merged across hosts (a
    model's lane spans every host it is placed on).

    One row per model that submitted anything: terminal counts, the
    goodput fraction of submissions, and the lane's own p50/p95
    latency — the numbers an SLO dashboard would show per tenant.
    """
    out: Dict[str, Dict[str, float]] = {}
    for model in sorted({m for w in windows for m in w.submitted_by_model}):
        row = {
            key: float(
                sum(getattr(w, f"{key}_by_model").get(model, 0) for w in windows)
            )
            for key in _LANE_COUNTS
        }
        lane_lat = sorted(
            latency
            for w in windows
            for latency in w.latencies_by_model.get(model, ())
        )
        row["goodput_frac"] = (
            row["goodput"] / row["submitted"] if row["submitted"] else 0.0
        )
        row["p50_ms"] = rank_quantile(lane_lat, 0.50) * 1e3
        row["p95_ms"] = rank_quantile(lane_lat, 0.95) * 1e3
        out[model] = row
    return out
