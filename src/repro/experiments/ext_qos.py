"""Extension: QoS admission policies and client models under load.

The paper's serving claim is latency-bounded (Section 2): a deployment
provisions against a tail-latency SLA, and MicroRec/RecNMP frame the
useful metric as *goodput* — requests completed within their deadline —
not raw throughput.  This extension measures, on one embedding-dominated
model served over the NDP path:

1. **Admission policies under 2x overload** — the same open-loop Poisson
   traffic at twice the measured capacity, shed three ways
   (:mod:`repro.serving.admission`):

   * ``reject`` — the seed behaviour: reject at the in-flight limit,
     serve everything admitted even when its deadline already passed.
   * ``deadline`` — deadline-aware early drop: queued requests whose SLO
     expired are shed at dispatch time, so device work goes to requests
     that can still convert into goodput.
   * ``priority`` — two tenants (one latency-critical on a priority
     lane, one bulk) with deadline drop; the hi lane should keep its
     goodput while the lo lane degrades.

   The headline claim (asserted by ``benchmarks/bench_qos.py`` and a
   tier-1 test): **deadline-aware admission achieves strictly higher
   goodput than reject-at-limit at equal overload.**

2. **Open- vs closed-loop latency-vs-load curves** — open-loop arrivals
   (rate swept past saturation) versus closed-loop client populations
   (population swept, think time fixed) through
   :mod:`repro.workload.generators`.  Open-loop tails diverge past
   saturation; closed-loop load self-throttles, so its tail stays
   bounded — the reason overload studies need open loops and capacity
   studies need closed ones.

3. **Host-contention sweep** (:mod:`repro.serving.hostpool`) — the same
   open-loop load at 0.5x and 2x capacity served with 1/2/4/∞ dense-stage
   NN workers (dense service inflated by ``DENSE_TIME_SCALE`` so the
   dense tower is a realistic fraction of request service, after the
   paper's Fig 6 model mix), plus a bounded host SLS worker pool at
   saturation.  The contract (asserted by
   ``benchmarks/bench_serving_throughput.py``): **bounding either host
   pool strictly increases p99 at saturation** — the seed's free overlap
   of per-table gathers and its cost-free dense concurrency flatter the
   host exactly where RecNMP says CPU/memory contention bites.

Everything runs through :func:`repro.workload.run_scenario` /
:func:`repro.workload.run_workload` — declarative scenarios driving the
full serving path — and is deterministic for a fixed seed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..models.dlrm import DlrmConfig, DlrmModel
from ..traces.analysis import interarrival_stats
from ..workload import RunResult, ScenarioSpec, TenantSpec, run_scenario
from .common import ExperimentResult

__all__ = [
    "run",
    "calibrate",
    "run_admission_policy",
    "run_host_contention",
    "ADMISSION_POLICIES",
    "DENSE_WORKER_SWEEP",
    "DENSE_TIME_SCALE",
]

BATCH_SIZE = 2
MAX_INFLIGHT = 48
# One shared host dispatch pool for every policy: a single-tenant run
# fills it exactly like the seed's per-worker limit (2), and the
# two-tenant priority run arbitrates the *same* pool — which is what a
# priority lane needs to mean anything (freed slots go hi-class-first).
DISPATCH_POOL = 2
OVERLOAD_X = 2.0
# SLO = this multiple of the lightly-loaded p95 (self-calibrating: the
# deadline is comfortably achievable without queueing, hopeless with it).
SLO_X = 2.5
# Early-drop headroom as a fraction of the SLO: only dispatch requests
# whose remaining slack exceeds this.  Must stay < 1 (at >= 1 every
# request is "doomed" on arrival); 0.8 means a dispatched request still
# has ~2x the unloaded p95 left to finish in.
HEADROOM_FRAC = 0.8

ADMISSION_POLICIES = ("reject", "deadline", "priority")

# Host-contention sweep knobs: dense-stage pool sizes (0 = unbounded,
# the "∞" point) and a dense service-time multiplier that makes the toy
# model's dense tower a realistic fraction of per-request service (the
# unscaled toy MLP is ~15 us vs ~1 ms of embedding work; production
# model mixes in the paper/RecNMP put the dense stage at a meaningful
# share of request latency).
DENSE_WORKER_SWEEP = (1, 2, 4, 0)
DENSE_TIME_SCALE = 64.0
SLS_WORKER_SWEEP = (1, 2, None)


def _qos_model(name: str = "qos-rm", seed: int = 1) -> DlrmModel:
    """A small embedding-dominated DLRM (the serving benchmark shape)."""
    return DlrmModel(
        DlrmConfig(
            name=name,
            dense_in=16,
            bottom_mlp=(32, 16),
            top_mlp=(32, 16),
            num_tables=2,
            table_rows=8192,
            dim=16,
            lookups=16,
        ),
        seed=seed,
    )


def _scenario(
    name: str,
    tenants: Tuple[TenantSpec, ...],
    seed: int,
    deadline_drop: bool = False,
    drop_headroom_s: float = 0.0,
    **host_knobs,
) -> ScenarioSpec:
    """``host_knobs`` pass through to the spec's host resource model
    (``host_sls_workers`` / ``dense_workers`` / ``dense_time_scale``)."""
    return ScenarioSpec(
        name=name,
        tenants=tenants,
        backend="ndp",
        max_inflight_requests=MAX_INFLIGHT,
        max_batch_requests=4,
        max_inflight_batches_total=DISPATCH_POOL,
        deadline_drop=deadline_drop,
        drop_headroom_s=drop_headroom_s,
        seed=seed,
        **host_knobs,
    )


def calibrate(seed: int = 0, n_requests: int = 24) -> Dict[str, float]:
    """Measure the model's serving capacity and unloaded tail.

    Capacity comes from a zero-think closed loop (8 clients keep the
    pipeline saturated without unbounded queueing); the unloaded p95
    from a light open-loop run.  Both are deterministic for a seed and
    anchor the overload/SLO knobs of every policy comparison.
    """
    closed = run_scenario(
        _scenario(
            "calibrate-capacity",
            (
                TenantSpec(
                    model="qos-rm",
                    arrival="closed",
                    num_clients=8,
                    requests_per_client=max(2, n_requests // 8),
                    think_time_s=0.0,
                    batch_size=BATCH_SIZE,
                ),
            ),
            seed=seed,
        ),
        [_qos_model()],
    )
    capacity_rps = closed.summary["throughput_rps"]
    light = run_scenario(
        _scenario(
            "calibrate-light",
            (
                TenantSpec(
                    model="qos-rm",
                    arrival="open",
                    rate=max(capacity_rps * 0.2, 1.0),
                    n_requests=n_requests,
                    batch_size=BATCH_SIZE,
                ),
            ),
            seed=seed,
        ),
        [_qos_model()],
    )
    light_p95_s = light.summary["p95_ms"] * 1e-3
    slo_s = SLO_X * light_p95_s
    return {
        "capacity_rps": capacity_rps,
        "light_p95_ms": light.summary["p95_ms"],
        "slo_s": slo_s,
        # Early-drop headroom: a queued request whose remaining slack is
        # below this cannot realistically finish in time under load —
        # dispatching it would spend device work on a guaranteed
        # deadline miss.  0.8x SLO leaves a dispatched request ~2x the
        # unloaded p95 to complete in.
        "headroom_s": HEADROOM_FRAC * slo_s,
        "overload_rps": OVERLOAD_X * capacity_rps,
    }


def run_admission_policy(
    policy: str,
    calibration: Dict[str, float],
    n_requests: int = 96,
    seed: int = 0,
) -> Tuple[Dict[str, object], RunResult]:
    """One overload run under ``policy``; returns (report row, result).

    All three policies see the same total offered rate
    (``overload_rps``) and the same SLO; they differ only in how load is
    shed.  ``priority`` splits the traffic over two tenants — a
    latency-critical quarter on a priority lane and a bulk remainder —
    so its row carries per-lane goodput columns too.
    """
    slo = calibration["slo_s"]
    rate = calibration["overload_rps"]
    if policy in ("reject", "deadline"):
        tenants: Tuple[TenantSpec, ...] = (
            TenantSpec(
                model="qos-rm",
                arrival="open",
                rate=rate,
                n_requests=n_requests,
                batch_size=BATCH_SIZE,
                slo_s=slo,
            ),
        )
        models = [_qos_model()]
    elif policy == "priority":
        hi_share = 0.25
        tenants = (
            TenantSpec(
                model="qos-hi",
                arrival="open",
                rate=rate * hi_share,
                n_requests=int(n_requests * hi_share),
                batch_size=BATCH_SIZE,
                slo_s=slo,
                priority=1,
            ),
            TenantSpec(
                model="qos-lo",
                arrival="open",
                rate=rate * (1 - hi_share),
                n_requests=n_requests - int(n_requests * hi_share),
                batch_size=BATCH_SIZE,
                slo_s=slo,
            ),
        )
        models = [_qos_model("qos-hi", seed=1), _qos_model("qos-lo", seed=2)]
    else:
        raise ValueError(f"unknown admission policy {policy!r}")
    drops = policy in ("deadline", "priority")
    result = run_scenario(
        _scenario(
            f"admission-{policy}",
            tenants,
            seed=seed,
            deadline_drop=drops,
            drop_headroom_s=calibration["headroom_s"] if drops else 0.0,
        ),
        models,
    )
    summary = result.summary
    row: Dict[str, object] = {
        "kind": "admission",
        "policy": policy,
        "offered_rps": rate,
        "goodput_rps": summary["goodput_rps"],
        "goodput_frac": summary["goodput"] / summary["submitted"],
        "throughput_rps": summary["throughput_rps"],
        "p95_ms": summary["p95_ms"],
        "completed": summary["completed"],
        "dropped": summary["dropped"],
        "rejected": summary["rejected"],
    }
    if policy == "priority":
        row["hi_goodput_frac"] = result.lane("qos-hi")["goodput_frac"]
        row["lo_goodput_frac"] = result.lane("qos-lo")["goodput_frac"]
    return row, result


def _load_curve_rows(
    calibration: Dict[str, float], fast: bool, seed: int
) -> List[Dict[str, object]]:
    """Open-loop rate sweep vs closed-loop population sweep."""
    rows: List[Dict[str, object]] = []
    capacity = calibration["capacity_rps"]
    open_n = 48 if fast else 120
    for load_x in (0.25, 0.5, 1.0, 2.0):
        result = run_scenario(
            _scenario(
                f"open-{load_x}x",
                (
                    TenantSpec(
                        model="qos-rm",
                        arrival="open",
                        rate=capacity * load_x,
                        n_requests=open_n,
                        batch_size=BATCH_SIZE,
                    ),
                ),
                seed=seed,
            ),
            [_qos_model()],
        )
        rows.append(
            {
                "kind": "loadcurve",
                "mode": "open",
                "load": load_x,
                "offered_rps": capacity * load_x,
                "achieved_rps": result.summary["throughput_rps"],
                "p95_ms": result.summary["p95_ms"],
                # Realized arrival-process shape: Poisson open loop has
                # CV ~= 1 regardless of how overloaded the server is.
                "arrival_cv": interarrival_stats(
                    result.stats.arrival_times
                )["cv"],
            }
        )
    # Closed loop: think time sized so the largest population offers
    # roughly the same 2x-capacity demand as the open-loop sweep's top.
    think = 4.0 / capacity
    for clients in (1, 2, 4, 8):
        per_client = max(3, open_n // (2 * clients))
        result = run_scenario(
            _scenario(
                f"closed-{clients}c",
                (
                    TenantSpec(
                        model="qos-rm",
                        arrival="closed",
                        num_clients=clients,
                        requests_per_client=per_client,
                        think_time_s=think,
                        batch_size=BATCH_SIZE,
                    ),
                ),
                seed=seed,
            ),
            [_qos_model()],
        )
        rows.append(
            {
                "kind": "loadcurve",
                "mode": "closed",
                "load": clients,
                "offered_rps": clients / think,
                "achieved_rps": result.summary["throughput_rps"],
                "p95_ms": result.summary["p95_ms"],
                # Closed-loop arrivals are response-gated, not Poisson.
                "arrival_cv": interarrival_stats(
                    result.stats.arrival_times
                )["cv"],
            }
        )
    return rows


def _host_scenario(
    name: str,
    rate: float,
    n_requests: int,
    seed: int,
    dense_workers: int = 1,
    host_sls_workers: Optional[int] = None,
) -> ScenarioSpec:
    """One open-loop tenant with the host resource model under study.

    No dispatch-pool cap (``max_inflight_batches_total=None``): the host
    pools themselves are the contended resource here, and a narrow
    dispatch pool would mask their queueing.
    """
    return ScenarioSpec(
        name=name,
        tenants=(
            TenantSpec(
                model="qos-rm",
                arrival="open",
                rate=rate,
                n_requests=n_requests,
                batch_size=BATCH_SIZE,
            ),
        ),
        backend="ndp",
        max_inflight_requests=MAX_INFLIGHT,
        max_batch_requests=4,
        dense_workers=dense_workers,
        host_sls_workers=host_sls_workers,
        dense_time_scale=DENSE_TIME_SCALE,
        seed=seed,
    )


def run_host_contention(
    calibration: Dict[str, float], n_requests: int = 48, seed: int = 0
) -> List[Dict[str, object]]:
    """Latency vs offered load at 1/2/4/∞ dense workers, plus a bounded
    host SLS pool at saturation; one report row per run with the pool's
    utilization and mean wait from ``hostpool_summary()``."""
    rows: List[Dict[str, object]] = []
    capacity = calibration["capacity_rps"]
    for workers in DENSE_WORKER_SWEEP:
        for load_x in (0.5, 2.0):
            label = "inf" if workers == 0 else str(workers)
            result = run_scenario(
                _host_scenario(
                    f"dense-{label}w-{load_x}x",
                    rate=capacity * load_x,
                    n_requests=n_requests,
                    seed=seed,
                    dense_workers=workers,
                ),
                [_qos_model()],
            )
            host = result.front.hostpool_summary()["dense"]
            rows.append(
                {
                    "kind": "hostpool",
                    "resource": "dense",
                    "workers": label,
                    "load": load_x,
                    "offered_rps": capacity * load_x,
                    "throughput_rps": result.summary["throughput_rps"],
                    "p95_ms": result.summary["p95_ms"],
                    "p99_ms": result.summary["p99_ms"],
                    "mean_wait_ms": host["mean_wait_ms"],
                    "utilization": host["utilization"],
                }
            )
    for workers in SLS_WORKER_SWEEP:
        label = "inf" if workers is None else str(workers)
        result = run_scenario(
            _host_scenario(
                f"sls-{label}w-2x",
                rate=capacity * 2.0,
                n_requests=n_requests,
                seed=seed,
                # Unbounded dense pool: isolate the SLS workers as the
                # only contended host resource in these rows.
                dense_workers=0,
                host_sls_workers=workers,
            ),
            [_qos_model()],
        )
        host = result.front.hostpool_summary()["host_sls"]
        rows.append(
            {
                "kind": "hostpool",
                "resource": "host_sls",
                "workers": label,
                "load": 2.0,
                "offered_rps": capacity * 2.0,
                "throughput_rps": result.summary["throughput_rps"],
                "p95_ms": result.summary["p95_ms"],
                "p99_ms": result.summary["p99_ms"],
                "mean_wait_ms": host["mean_wait_ms"],
                "utilization": host["utilization"],
            }
        )
    return rows


def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    calibration = calibrate(seed=seed)
    n_requests = 96 if fast else 240
    rows: List[Dict[str, object]] = []
    for policy in ADMISSION_POLICIES:
        row, _result = run_admission_policy(
            policy, calibration, n_requests=n_requests, seed=seed
        )
        rows.append(row)
    rows.extend(_load_curve_rows(calibration, fast, seed))
    rows.extend(
        run_host_contention(
            calibration, n_requests=48 if fast else 120, seed=seed
        )
    )
    return ExperimentResult(
        "ext_qos",
        "QoS admission (goodput under 2x overload) + open/closed load "
        "curves + host-pool contention sweep",
        rows,
        notes=[
            "extension beyond the paper (SLO-centric serving, after "
            "MicroRec/RecNMP's goodput framing)",
            f"capacity {calibration['capacity_rps']:.0f} rps, "
            f"SLO {calibration['slo_s'] * 1e3:.2f} ms "
            f"({SLO_X}x light-load p95), overload {OVERLOAD_X}x",
            "goodput = completed within SLO deadline; drop reasons in "
            "ServingStats.drops_by_reason",
            "hostpool rows: dense pool swept 1/2/4/inf workers (dense "
            f"service x{DENSE_TIME_SCALE:.0f}), host SLS pool bounded at "
            "saturation; bounded host pools strictly raise p99 at 2x load",
        ],
    )


def main() -> None:  # pragma: no cover
    print(run(fast=True).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
