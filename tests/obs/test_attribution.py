"""Attribution acceptance tests: exactness and the aged-device story.

Two pins from the issue driving this subsystem:

* exactness — on a fixed-seed cluster scenario, every request's
  per-stage exclusive times sum to its end-to-end latency within
  1e-9 s, and the ``attribute_p99`` stage table sums to the cohort
  latency at the same tolerance;
* the story — on the ``BENCH_updates`` aged-device cell (SSD backend,
  GC steady state, live update stream) with the host-side admission
  knobs opened so they don't mask the device, the dominant p99 stage is
  the FTL/GC read path: foreground page reads stuck behind update
  programs and GC migrations on the dies.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSpec, run_cluster_scenario
from repro.obs import Tracer, attribute_p99, build_request_trees, exclusive_times
from repro.serving import age_device
from repro.workload import (
    OpenLoopGenerator,
    ScenarioSpec,
    TenantSpec,
    UpdateStreamSpec,
    run,
    run_workload,
    setup,
)

from ..serving.conftest import build_server, toy_model

EPS = 1e-9


@pytest.fixture(scope="module")
def cluster_trace():
    spec = ClusterSpec(
        name="attr-cluster",
        scenario=ScenarioSpec(
            name="attr-cluster",
            tenants=(
                TenantSpec(
                    model="toy",
                    arrival="open",
                    rate=3000.0,
                    n_requests=48,
                    batch_size=2,
                    slo_s=0.05,
                ),
            ),
            backend="ndp",
            max_batch_requests=4,
            seed=29,
        ),
        n_hosts=2,
    )
    tracer = Tracer()
    run_cluster_scenario(spec, [toy_model()], tracer=tracer)
    return tracer


def test_exclusive_times_sum_to_latency_within_1e9(cluster_trace):
    trees = build_request_trees(cluster_trace)
    assert trees, "cluster scenario produced no completed requests"
    for tree in trees:
        total = sum(exclusive_times(tree).values())
        assert abs(total - tree.span.duration) < EPS


def test_p99_stages_sum_to_cohort_latency(cluster_trace):
    report = attribute_p99(cluster_trace)
    assert report["cohort"] >= 1
    assert abs(
        sum(report["stages"].values()) - report["cohort_latency_s"]
    ) < EPS
    # Exclusive time is a partition: no stage can be negative.
    assert all(v >= 0.0 for v in report["stages"].values())


def test_p99_threshold_is_the_p99_serving_stats_reports():
    """The cohort ``attribute_p99`` explains is cut at the p99 every
    ``summary()`` prints: one rank rule (``rank_quantile``), not a private
    one.  At n=60 the old ceil rule picked index 59 (the maximum, a cohort
    of one) where ``ServingStats.percentile(0.99)`` picks index 58."""
    model = toy_model()
    server = build_server(model)
    tracer = Tracer().install(server.sim)
    generator = OpenLoopGenerator(
        model.name, rate=2000.0, n_requests=60, batch_size=2
    )
    stats = run_workload(server, generator, seed=3)
    assert stats.completed == 60
    report = attribute_p99(tracer)
    assert report["requests"] == 60
    assert report["threshold_s"] == stats.percentile(0.99)
    assert report["threshold_s"] * 1e3 == stats.summary()["p99_ms"]
    assert report["cohort"] == 2
    # Any percentile, same rule.
    for pct in (50.0, 95.0):
        assert attribute_p99(tracer, pct)["threshold_s"] == stats.percentile(
            pct / 100
        )


def _aged_device_trace(update_rate: float) -> Tracer:
    """One BENCH_updates-style cell (aged SSD + interleaved updates),
    with admission limits opened so queueing policy doesn't mask where
    the device itself spends the tail."""
    read_rate, n_requests = 300.0, 120
    spec = ScenarioSpec(
        name="aged",
        tenants=(
            TenantSpec(model="m", rate=read_rate, n_requests=n_requests, batch_size=2),
        ),
        backend="ssd",
        max_inflight_requests=1024,
        max_inflight_batches_per_worker=8,
        seed=7,
        updates=UpdateStreamSpec(
            rate=update_rate,
            n_updates=max(1, int(update_rate * n_requests / read_rate)),
            rows_per_update=32,
            policy="interleave",
        ),
    )
    built = setup(spec, [toy_model("m", seed=1)])
    age_device(built.front.system)
    tracer = Tracer()
    run(built, tracer)
    return tracer


def test_aged_device_p99_dominated_by_ftl_read_path():
    tracer = _aged_device_trace(update_rate=150.0)
    report = attribute_p99(tracer)
    assert report["dominant"] == "ftl.read"
    # ... and decisively so, matching BENCH_updates' GC-interference
    # story: the tail is the device read path, not the host/dense side.
    stages = report["stages"]
    assert stages["ftl.read"] > 0.5 * report["cohort_latency_s"]
    host_side = sum(
        stages.get(name, 0.0) for name in ("queue", "dense", "dense_wait")
    )
    assert stages["ftl.read"] > host_side
    # GC really ran during the window (the interference is real).
    assert tracer.find("gc.migrate")
    assert tracer.find("update.commit")
