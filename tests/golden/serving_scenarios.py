"""Fixed-seed serving scenarios with fully recorded outcomes.

``serving_golden.json`` pins the end-to-end latency distribution of
:func:`repro.workload.run_scenario` — summary percentiles, per-lane QoS
numbers and the host resource model's gauges — for fixed seeds, so
future serving refactors cannot silently shift the distribution the way
``hotpath_golden.json`` pins the backend hot path.  Everything recorded
is simulated (deterministic) arithmetic; the golden test compares
exactly.

Regenerate (ONLY on a commit whose serving path is trusted) with:

    PYTHONPATH=src python -m tests.golden.generate_serving_golden
"""

from __future__ import annotations

from typing import Any, Dict

from repro.serving import RowShardPolicy
from repro.workload import ScenarioSpec, TenantSpec, run_scenario

from ..serving.conftest import toy_model

__all__ = ["SCENARIOS"]

SUMMARY_KEYS = (
    "submitted",
    "completed",
    "rejected",
    "dropped",
    "goodput",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "mean_ms",
    "max_ms",
    "throughput_rps",
    "goodput_rps",
    "mean_queue_delay_ms",
    "mean_batch_requests",
    "mean_dense_wait_ms",
    "mean_sls_wait_ms",
)


def _record(result) -> Dict[str, Any]:
    host = result.server.hostpool_summary()
    return {
        "summary": {key: result.summary[key] for key in SUMMARY_KEYS},
        "lanes": result.lanes,
        "drops_by_reason": dict(result.stats.drops_by_reason),
        "rejects_by_reason": dict(result.stats.rejects_by_reason),
        "host": host,
    }


def mixed_tenants_default_pools() -> Dict[str, Any]:
    """Open overload + closed clients, QoS admission, default host model
    (the bit-identical legacy path the oracle test also covers)."""
    spec = ScenarioSpec(
        name="golden-mixed",
        tenants=(
            TenantSpec(
                model="hi",
                arrival="open",
                rate=2500.0,
                n_requests=24,
                batch_size=2,
                slo_s=0.02,
                priority=1,
            ),
            TenantSpec(
                model="lo",
                arrival="closed",
                num_clients=4,
                requests_per_client=4,
                think_time_s=0.002,
                batch_size=2,
                slo_s=0.05,
            ),
        ),
        backend="ndp",
        max_inflight_requests=32,
        max_batch_requests=4,
        deadline_drop=True,
        drop_headroom_s=0.004,
        seed=17,
    )
    result = run_scenario(
        spec, [toy_model("hi", seed=1), toy_model("lo", seed=2)]
    )
    return _record(result)


def bounded_host_pools() -> Dict[str, Any]:
    """Open overload against bounded host SLS + dense pools: pins the
    host resource model's queueing arithmetic and gauges."""
    spec = ScenarioSpec(
        name="golden-hostpool",
        tenants=(
            TenantSpec(
                model="m",
                arrival="open",
                rate=3000.0,
                n_requests=24,
                batch_size=2,
            ),
        ),
        backend="ndp",
        max_batch_requests=4,
        host_sls_workers=2,
        dense_workers=2,
        dense_time_scale=32.0,
        seed=23,
    )
    result = run_scenario(spec, [toy_model("m", seed=3)])
    return _record(result)


def _placed(name: str, seed: int, num_workers: int, sharding) -> Dict[str, Any]:
    """Open overload on several devices behind a two-worker host SLS
    pool: the bounded pool is where a merge's worker acquisition shows
    (``sls_ops``, ``mean_sls_wait_ms``) next to the per-shard credit."""
    spec = ScenarioSpec(
        name=name,
        tenants=(
            TenantSpec(
                model="m",
                arrival="open",
                rate=3000.0,
                n_requests=24,
                batch_size=2,
            ),
        ),
        backend="ndp",
        max_batch_requests=4,
        host_sls_workers=2,
        seed=seed,
    )
    result = run_scenario(
        spec,
        [toy_model("m", num_tables=3, seed=3)],
        num_workers=num_workers,
        sharding=sharding,
    )
    return {
        "summary": {key: result.summary[key] for key in SUMMARY_KEYS},
        "host": result.server.hostpool_summary(),
        "shards": {
            model: {str(shard): row for shard, row in per_shard.items()}
            for model, per_shard in result.stats.shard_summary().items()
        },
    }


def replicate_three_devices() -> Dict[str, Any]:
    """Whole-model replicas on three devices, batches round-robin."""
    return _placed("golden-replicate3", 29, 3, None)


def row_shard_two_devices() -> Dict[str, Any]:
    """Every table row-split over two devices: scatter, partial sums,
    and a host-side merge that has to win a pool worker."""
    return _placed("golden-rowshard2", 31, 2, RowShardPolicy(threshold_rows=1024))


SCENARIOS = {
    "mixed_tenants_default_pools": mixed_tenants_default_pools,
    "bounded_host_pools": bounded_host_pools,
    "replicate_three_devices": replicate_three_devices,
    "row_shard_two_devices": row_shard_two_devices,
}
