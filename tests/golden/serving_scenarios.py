"""Fixed-seed serving scenarios with fully recorded outcomes.

``serving_golden.json`` pins the end-to-end latency distribution of
:func:`repro.workload.run_scenario` — summary percentiles, per-lane QoS
numbers and the host resource model's gauges — for fixed seeds, so
future serving refactors cannot silently shift the distribution the way
``hotpath_golden.json`` pins the backend hot path.

``updates_golden.json`` pins the update-enabled timeline the same way:
the read-side latency summary, the update engine's accounting (pages
written, deferrals, mean device-write latency), the exact commit
*timestamps* of every update batch, and the exact post-run *values* of
the rewritten rows plus whole-table checksums.

The zero-update oracle (:func:`zero_update`) closes the loop the other
way: the golden-mixed scenario run with ``updates=None`` must stay
bit-identical to the serving entry recorded before the update path
existed.  Everything recorded is simulated (deterministic) arithmetic;
the replay compares exactly.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.serving import RowShardPolicy
from repro.workload import (
    ScenarioSpec,
    TenantSpec,
    UpdateStream,
    UpdateStreamSpec,
    run_scenario,
)

from ..serving.conftest import toy_model

__all__ = ["SERVING", "UPDATES", "open_spec", "zero_update"]

# The summary keys a host and a fleet both report.
COMMON_KEYS = (
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
)
SUMMARY_KEYS = COMMON_KEYS + ("mean_batch_requests", "mean_dense_wait_ms", "mean_sls_wait_ms")


def _summary(result) -> Dict[str, Any]:
    return {key: result.summary[key] for key in SUMMARY_KEYS}


def _record(result) -> Dict[str, Any]:
    return {
        "summary": _summary(result),
        "lanes": result.lanes,
        "drops_by_reason": dict(result.stats.drops_by_reason),
        "rejects_by_reason": dict(result.stats.rejects_by_reason),
        "host": result.front.hostpool_summary(),
    }


def mixed_spec(updates: Optional[UpdateStreamSpec], backend: str = "ndp") -> ScenarioSpec:
    """Open overload + closed clients under QoS admission on the default
    host model; the update stream injectable."""
    return ScenarioSpec(
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
        backend=backend,
        max_inflight_requests=32,
        max_batch_requests=4,
        deadline_drop=True,
        drop_headroom_s=0.004,
        seed=17,
        updates=updates,
    )


def _mixed_models():
    return [toy_model("hi", seed=1), toy_model("lo", seed=2)]


def mixed_tenants_default_pools(tracer=None) -> Dict[str, Any]:
    return _record(run_scenario(mixed_spec(None), _mixed_models(), tracer=tracer))


def zero_update() -> Dict[str, Any]:
    """No stream through the update-aware run: the read-only timeline,
    and no update accounting."""
    result = run_scenario(mixed_spec(updates=None), _mixed_models())
    assert result.updates == {}
    return _record(result)


def open_spec(name: str, model: str, seed: int, n_requests: int = 24, slo_s=None, **knobs):
    """One open-loop tenant in overload (3000 rps) on NDP, at most four
    requests per batch."""
    tenant = TenantSpec(
        model=model,
        arrival="open",
        rate=3000.0,
        n_requests=n_requests,
        batch_size=2,
        slo_s=slo_s,
    )
    return ScenarioSpec(
        name=name, tenants=(tenant,), backend="ndp", max_batch_requests=4, seed=seed, **knobs
    )


def bounded_host_pools(tracer=None) -> Dict[str, Any]:
    """Open overload against bounded host SLS + dense pools: pins the
    host resource model's queueing arithmetic and gauges."""
    spec = open_spec(
        "golden-hostpool", "m", 23, host_sls_workers=2, dense_workers=2, dense_time_scale=32.0
    )
    return _record(run_scenario(spec, [toy_model("m", seed=3)], tracer=tracer))


def _placed(name: str, seed: int, num_workers: int, sharding, tracer) -> Dict[str, Any]:
    """Open overload on several devices behind a two-worker host SLS
    pool: the bounded pool is where a merge's worker acquisition shows
    (``sls_ops``, ``mean_sls_wait_ms``) next to the per-shard credit."""
    result = run_scenario(
        open_spec(name, "m", seed, host_sls_workers=2),
        [toy_model("m", num_tables=3, seed=3)],
        num_workers=num_workers,
        sharding=sharding,
        tracer=tracer,
    )
    return {
        "summary": _summary(result),
        "host": result.front.hostpool_summary(),
        "shards": {
            model: {str(shard): row for shard, row in per_shard.items()}
            for model, per_shard in result.stats.shard_summary().items()
        },
    }


def replicate_three_devices(tracer=None) -> Dict[str, Any]:
    """Whole-model replicas on three devices, batches round-robin."""
    return _placed("golden-replicate3", 29, 3, None, tracer)


def row_shard_two_devices(tracer=None) -> Dict[str, Any]:
    """Every table row-split over two devices: scatter, partial sums,
    and a host-side merge that has to win a pool worker."""
    return _placed("golden-rowshard2", 31, 2, RowShardPolicy(threshold_rows=1024), tracer)


def _record_updates(spec: ScenarioSpec) -> Dict[str, Any]:
    models = _mixed_models()
    result = run_scenario(spec, models)
    target = spec.updates.model or spec.tenants[0].model
    model = next(m for m in models if m.name == target)
    # Re-draw the (fully deterministic) stream to learn which rows each
    # batch touched, then read the *post-run* values back out of the
    # canonical tables: values and timestamps, pinned exactly.
    stream = UpdateStream(spec.updates, model, seed=spec.seed)
    touched: Dict[str, set] = {}
    for table_name, rows in zip(stream.tables, stream.rows):
        touched.setdefault(table_name, set()).update(int(r) for r in rows)
    tables: Dict[str, Any] = {}
    for name, table in model.tables.items():
        all_rows = np.arange(table.spec.rows, dtype=np.int64)
        checksum = float(np.sum(table.get_rows(all_rows), dtype=np.float64))
        rows = sorted(touched.get(name, ()))
        values = (
            table.get_rows(np.asarray(rows, dtype=np.int64)) if rows else
            np.zeros((0, table.spec.dim), np.float32)
        )
        tables[name] = {
            "checksum": checksum,
            "touched_rows": rows,
            "touched_values": [[float(v) for v in row] for row in values],
        }
    return {
        "summary": _summary(result),
        "updates": result.updates,
        "commit_offsets": [float(t) for t in stream.offsets],
        "tables": tables,
    }


def ndp_interleaved_updates() -> Dict[str, Any]:
    """Naive interleaving on the NDP backend: writes land at commit time
    and the partition caches are written through."""
    return _record_updates(
        mixed_spec(
            UpdateStreamSpec(
                rate=2000.0,
                n_updates=12,
                rows_per_update=16,
                zipf_alpha=1.2,
                policy="interleave",
            )
        )
    )


def ssd_throttled_updates() -> Dict[str, Any]:
    """Throttled write lane on the SSD backend: host LRU invalidation
    plus gap/defer scheduling behind the read traffic."""
    return _record_updates(
        mixed_spec(
            UpdateStreamSpec(
                rate=1500.0,
                n_updates=10,
                rows_per_update=32,
                model="hi",
                policy="throttled",
                min_gap_s=100e-6,
                defer_s=150e-6,
                max_defer_s=2e-3,
            ),
            backend="ssd",
        )
    )


SERVING = {
    "mixed_tenants_default_pools": mixed_tenants_default_pools,
    "bounded_host_pools": bounded_host_pools,
    "replicate_three_devices": replicate_three_devices,
    "row_shard_two_devices": row_shard_two_devices,
}

UPDATES = {
    "ndp_interleaved_updates": ndp_interleaved_updates,
    "ssd_throttled_updates": ssd_throttled_updates,
}
