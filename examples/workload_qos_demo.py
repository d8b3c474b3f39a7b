#!/usr/bin/env python3
"""Workload & QoS demo: scenarios, client models and admission policies.

Runs one declarative multi-tenant scenario (``repro.workload``) against
the simulated RecSSD serving stack three times, changing only the
admission policy:

1. ``reject``   — the seed behaviour: shed load only at the in-flight
   limit; admitted requests are served even after their deadline passed.
2. ``deadline`` — deadline-aware early drop: queued requests that can no
   longer finish inside their SLO are shed at dispatch time.
3. ``priority`` — deadline drop + a priority lane for the
   latency-critical tenant, arbitrating a shared host dispatch pool.

The scenario mixes three client models over two tenants: the
latency-critical tenant sends open-loop Poisson traffic with Zipf
(Fig 3-shaped) lookups, the bulk tenant runs a closed-loop client
population with think time and Fig 4-shaped locality lookups.  Goodput
(completions within the SLO) and per-lane breakdowns come from
``ServingStats.lane_summary()``.

Run with::

    PYTHONPATH=src python examples/workload_qos_demo.py
"""

from repro.models.dlrm import DlrmConfig, DlrmModel
from repro.workload import ScenarioSpec, TenantSpec, run_scenario


def make_model(name: str, seed: int) -> DlrmModel:
    return DlrmModel(
        DlrmConfig(
            name=name, dense_in=16, bottom_mlp=(32, 16), top_mlp=(32, 16),
            num_tables=2, table_rows=8192, dim=16, lookups=16,
        ),
        seed=seed,
    )


# Both tenants share one SLO so goodput is comparable; "rt" (real-time)
# is the latency-critical quarter of the traffic, "bulk" the rest.
SLO_S = 0.008
TENANTS = (
    TenantSpec(
        model="rt",
        arrival="open",            # open loop: overload does not throttle
        rate=500.0,
        n_requests=40,
        batch_size=2,
        slo_s=SLO_S,
        priority=1,                # only the "priority" policy keeps this
        zipf_alpha=1.2,            # Fig 3-shaped power-law lookups
    ),
    TenantSpec(
        model="bulk",
        arrival="closed",          # closed loop: clients wait + think
        num_clients=6,
        requests_per_client=20,
        think_time_s=0.002,
        batch_size=2,
        slo_s=SLO_S,
        locality_k=1.0,            # Fig 4-shaped locality lookups
    ),
)

POLICIES = {
    "reject": dict(deadline_drop=False),
    "deadline": dict(deadline_drop=True, drop_headroom_s=0.75 * SLO_S),
    "priority": dict(deadline_drop=True, drop_headroom_s=0.75 * SLO_S),
}


def main() -> None:
    for policy, knobs in POLICIES.items():
        tenants = TENANTS
        if policy != "priority":  # strip the priority lane for the others
            tenants = tuple(
                TenantSpec(**{**vars(t), "priority": 0}) for t in TENANTS
            )
        spec = ScenarioSpec(
            name=f"demo-{policy}",
            tenants=tenants,
            backend="ndp",
            max_inflight_requests=32,
            max_batch_requests=4,
            max_inflight_batches_total=2,   # shared host dispatch pool
            seed=42,
            **knobs,
        )
        result = run_scenario(spec, [make_model("rt", 3), make_model("bulk", 4)])
        s = result.summary
        print(f"\n=== policy: {policy} ===")
        print(
            f"served {s['completed']:.0f}/{s['submitted']:.0f} "
            f"(goodput {s['goodput']:.0f} within {SLO_S * 1e3:.0f}ms SLO, "
            f"{s['dropped']:.0f} dropped, {s['rejected']:.0f} rejected) "
            f"p95={s['p95_ms']:.2f}ms"
        )
        for lane, row in result.lanes.items():
            print(
                f"  {lane:5} goodput {row['goodput']:3.0f}/{row['submitted']:3.0f} "
                f"({row['goodput_frac']:5.1%})  dropped {row['dropped']:3.0f}  "
                f"p95 {row['p95_ms']:6.2f}ms"
            )
    print(
        "\ndeadline-aware drop converts doomed queue time into goodput; "
        "the priority lane protects the real-time tenant (see "
        "docs/SERVING.md, 'Workloads & QoS')."
    )
    host_contention_demo()


def host_contention_demo() -> None:
    """Host resource model: the same overload with bounded host pools.

    The dense service time is inflated (x64) so the toy model's dense
    stage is a realistic share of request latency; one dense NN worker
    then queues completions while the unbounded pool overlaps them (see
    docs/SERVING.md, 'Host resource model').
    """
    print("\n=== host resource model: dense workers at 2x overload ===")
    for workers, label in ((1, "1"), (2, "2"), (0, "inf")):
        spec = ScenarioSpec(
            name=f"demo-hostpool-{label}",
            tenants=(
                TenantSpec(
                    model="rt", arrival="open", rate=1000.0, n_requests=60,
                    batch_size=2,
                ),
            ),
            backend="ndp",
            max_inflight_requests=32,
            max_batch_requests=4,
            dense_workers=workers,
            dense_time_scale=64.0,
            seed=42,
        )
        result = run_scenario(spec, [make_model("rt", 3)])
        s = result.summary
        host = result.front.hostpool_summary()["dense"]
        print(
            f"  dense_workers={label:3}  p99={s['p99_ms']:6.2f}ms  "
            f"dense wait {s['mean_dense_wait_ms']:5.2f}ms  "
            f"utilization {host['utilization']:5.1%}"
        )
    print("bounding the host strictly raises the tail at saturation.")


if __name__ == "__main__":
    main()
