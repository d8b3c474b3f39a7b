"""Output checks.  Each returns the failures it found; any failure is fatal.

Three kinds: conservation (nothing lost), values (what the backend
returned is the in-DRAM reference, bit for bit) and regime (the workload
still exercises what its ``why`` says, so a silently changed default
cannot hollow it out).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .workloads import BATCH_SIZE, MODEL, Built, Observation

__all__ = ["conservation", "values", "regime", "VALUE_SAMPLE"]

VALUE_SAMPLE = 32


def conservation(seen: Observation) -> List[str]:
    failures = []
    if seen.submitted != seen.completed + seen.rejected + seen.dropped:
        failures.append(
            f"conservation: submitted {seen.submitted} != completed {seen.completed} "
            f"+ rejected {seen.rejected} + dropped {seen.dropped}"
        )
    if seen.inflight != 0:
        failures.append(f"conservation: {seen.inflight} requests still in flight")
    if seen.update_writes_completed != seen.update_pages_written:
        failures.append(
            f"conservation: {seen.update_pages_written} update page writes enqueued, "
            f"{seen.update_writes_completed} completed"
        )
    return failures


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    return np.allclose(got, want, rtol=1e-5, atol=1e-6)


def values(built: Built) -> List[str]:
    """Submit a fixed sample through the built system — aged, updated and
    routed as it is — and compare every returned bag sum with
    ``EmbeddingTable.ref_sls``.  Call it after the timed region.

    The DRAM backend must match bit for bit.  The device backends add the
    same float32 rows in page order, one ulp away at most, so they are held
    to the tolerance the repo's own backend tests use."""
    rng = np.random.default_rng(0)
    model = built.model
    requests = [
        built.front.submit(MODEL, model.sample_batch(rng, BATCH_SIZE))
        for _ in range(VALUE_SAMPLE)
    ]
    built.sim.run_until(lambda: all(r.done for r in requests))
    same = np.array_equal if built.workload.backend == "dram" else _close
    failures = []
    for request in requests:
        for name, bags in request.batch.bags.items():
            got = request.values.get(name)
            want = model.tables[name].ref_sls(bags)
            if got is None or got.shape != want.shape or not same(got, want):
                failures.append(
                    f"values: request {request.request_id} table {name} "
                    f"({request.state.value}) differs from ref_sls"
                )
    return failures


def regime(built: Built, seen: Observation, counts: Dict[str, float]) -> List[str]:
    workload = built.workload
    failures = []

    def require(ok: bool, what: str) -> None:
        if not ok:
            failures.append(f"regime: {workload.name}: {what}")

    require(seen.rejected == 0 and seen.dropped == 0,
            f"{seen.rejected} rejected, {seen.dropped} dropped: not sub-saturation")
    if workload.aged:
        require(counts["ftl.gc_runs"] > 0, "GC never ran: device not aged?")
        require(seen.update_pages_written > 0, "no update page writes")
    else:
        # Steady: completions keep up with arrivals, i.e. simulated throughput
        # is at least 0.95 x offered at full size.  Stated as the time the
        # last completion trails the last arrival, which does not grow when
        # --quick shortens the run.
        allowed_s = 0.05 * workload.n_requests / workload.rate
        require(seen.completion_lag_s <= allowed_s,
                f"last completion trails last arrival by {seen.completion_lag_s:.4f} s "
                f"> {allowed_s:.4f} s: backlog")
        require(counts["flash.page_programs"] == 0, "a read-only workload programmed flash")
    if workload.host_cache_entries:
        rate = counts["embedding.host_cache_hit_rate"]
        require(0.05 < rate < 0.95, f"host cache hit rate {rate:.3f} outside (0.05, 0.95)")
    if workload.backend == "ndp":
        require(counts["core.sls_requests"] > 0, "NDP engine served nothing")
    else:
        require(counts["core.sls_requests"] == 0, "NDP engine ran on a non-NDP workload")
    if workload.backend == "dram":
        require(counts["nvme.commands_fetched"] == 0, "DRAM workload touched the device")
    if workload.n_hosts > 1:
        routed = built.front.router.routes_by_host
        require(len(routed) == workload.n_hosts and min(routed.values()) > 0,
                f"only {sorted(routed)} of {workload.n_hosts} hosts routed to")
    return failures
