"""Read-your-writes property tests for live embedding updates.

Hypothesis draws a random interleaved schedule of update batches and
read requests, a backend (dram | ssd | ndp), a placement topology
(replicate x1/x2, table-sharded, row-sharded) and a write-scheduling
policy, then drives them against one server.  Whatever the draw:

* **read-your-writes** — every completed read returns the SLS of the
  *latest committed* table data (update device writes may still be in
  flight when the read runs; commit-at-issue means they cannot lag the
  value a read observes);
* **conservation** — ``submitted == completed + rejected + dropped +
  inflight`` holds while reads and update writes are both in flight,
  and terminally once settled;
* **write accounting** — once the engine drains, every enqueued dirty
  page completed exactly once, and batch/row gauges match the schedule.

Rows for both updates and reads come from one small shared pool so the
schedules actually collide on rows instead of passing in the night.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.models.runner import BackendKind
from repro.serving import (
    EmbeddingUpdateEngine,
    RequestState,
    RowShardPolicy,
    TableShardPolicy,
    make_model_updatable,
)
from repro.workload import (
    ScenarioSpec,
    TenantSpec,
    UpdateStreamSpec,
    run_scenario,
)

from .conftest import build_server, toy_model

# Shard partial sums merge in shard order, not bag order (float32); this
# is the repo-wide accumulation-order tolerance (cf. test_sharding.py).
RTOL, ATOL = 1e-4, 1e-5

# Update rows and read bags both draw from [0, POOL): collisions are the
# norm, so a stale cache line would be *observed*, not merely possible.
POOL = 48


def _topologies():
    return st.sampled_from(
        [
            ("replicate", 1, None),
            ("replicate", 2, None),
            ("table", 2, "table"),
            ("row", 2, "row"),
        ]
    )


def _sharding_of(tag):
    if tag == "table":
        return TableShardPolicy()
    if tag == "row":
        return RowShardPolicy(threshold_rows=1)
    return None


update_step = st.tuples(
    st.just("update"),
    st.integers(0, 1),                          # table index
    st.lists(st.integers(0, POOL - 1), min_size=1, max_size=6),
)
read_step = st.tuples(
    st.just("read"),
    st.integers(1, 3),                          # batch size
    st.just(0),
)
schedule_strategy = st.lists(
    st.one_of(update_step, read_step), min_size=2, max_size=6
)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    backend=st.sampled_from([BackendKind.DRAM, BackendKind.SSD, BackendKind.NDP]),
    topology=_topologies(),
    policy=st.sampled_from(["interleave", "throttled"]),
    schedule=schedule_strategy,
    seed=st.integers(0, 2**16),
)
def test_read_your_writes(backend, topology, policy, schedule, seed):
    _tag, num_workers, sharding_tag = topology
    model = toy_model(name="ryw", seed=3)
    make_model_updatable(model)
    server = build_server(
        model,
        kind=backend,
        num_workers=num_workers,
        sharding=_sharding_of(sharding_tag),
    )
    engine = EmbeddingUpdateEngine(server, policy=policy)
    rng = np.random.default_rng(seed)
    pool_samplers = {
        f.name: (lambda n: rng.integers(0, POOL, size=n, dtype=np.int64))
        for f in model.features
    }
    features = model.features
    dim = features[0].spec.dim

    # Every schedule exercises at least one update before its reads.
    steps = [("update", 0, [1, 2, 3])] + list(schedule) + [("read", 2, 0)]
    stats = server.stats
    for step in steps:
        if step[0] == "update":
            _kind, t_idx, row_list = step
            table_name = features[t_idx % len(features)].name
            rows = np.asarray(row_list, dtype=np.int64)
            values = rng.normal(size=(rows.size, dim)).astype(np.float32)
            distinct = engine.apply_update(model.name, table_name, rows, values)
            assert distinct == np.unique(rows).size
            # No drain: the dirty-page device writes stay in flight and
            # contend with the reads that follow — commit already landed.
        else:
            _kind, batch_size, _ = step
            batch = model.sample_batch(rng, batch_size, samplers=pool_samplers)
            expected = model.reference_emb(batch)
            request = server.submit(model.name, batch)
            # Conservation must hold mid-flight, update writes and all.
            assert stats.submitted == (
                stats.completed + stats.rejected + stats.dropped + stats.inflight
            )
            server.run_until_settled()
            assert request.state is RequestState.COMPLETE
            for feature in features:
                got = request.values[feature.name]
                want = expected[feature.name]
                assert got.shape == want.shape
                assert np.allclose(got, want, rtol=RTOL, atol=ATOL), (
                    backend,
                    topology,
                    feature.name,
                )

    # Drain the write lanes; the accounting must close exactly.
    server.sim.run_until(lambda: engine.idle)
    assert engine.idle
    assert stats.inflight == 0
    assert stats.submitted == stats.completed + stats.rejected + stats.dropped
    n_updates = sum(1 for s in steps if s[0] == "update")
    assert engine.batches_applied == n_updates
    assert engine.writes_completed == engine.pages_written
    assert len(engine.write_latencies) == engine.writes_completed
    assert all(latency >= 0.0 for latency in engine.write_latencies)
    if backend is BackendKind.DRAM:
        # Nothing is attached: commit-only, no device traffic.
        assert engine.pages_written == 0
    else:
        assert engine.pages_written >= n_updates


# ----------------------------------------------------------------------
# Scenario tier: conservation + update accounting under full read load,
# for arbitrary drawn update streams on every backend.
# ----------------------------------------------------------------------
def _tenant(index: int):
    name = f"t{index}"
    return st.builds(
        TenantSpec,
        model=st.just(name),
        arrival=st.just("open"),
        rate=st.sampled_from([500.0, 4000.0]),
        n_requests=st.integers(3, 8),
        batch_size=st.integers(1, 2),
        slo_s=st.sampled_from([None, 0.02]),
    )


update_spec_strategy = st.builds(
    UpdateStreamSpec,
    rate=st.sampled_from([300.0, 3000.0]),
    n_updates=st.integers(1, 5),
    rows_per_update=st.integers(1, 8),
    zipf_alpha=st.sampled_from([None, 1.2]),
    policy=st.sampled_from(["interleave", "throttled"]),
)

scenario_strategy = st.builds(
    ScenarioSpec,
    name=st.just("upd-prop"),
    tenants=st.tuples(_tenant(0), _tenant(1)),
    backend=st.sampled_from(["dram", "ssd", "ndp"]),
    max_inflight_requests=st.sampled_from([8, 64]),
    max_batch_requests=st.sampled_from([2, 8]),
    updates=update_spec_strategy,
    seed=st.integers(0, 2**16),
)


def _model(name: str, seed: int):
    return toy_model(name=name, seed=seed)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=scenario_strategy)
def test_scenario_with_updates_invariants(spec: ScenarioSpec):
    models = [_model(t.model, seed=i + 1) for i, t in enumerate(spec.tenants)]
    result = run_scenario(spec, models)
    stats = result.stats

    # Read-side conservation is undisturbed by the interleaved writes.
    assert stats.inflight == 0
    assert stats.submitted == stats.completed + stats.rejected + stats.dropped
    assert stats.submitted == spec.total_requests

    # The update stream ran to completion and its accounting closes.
    updates = result.updates
    upd = spec.updates
    assert updates["update_batches"] == upd.n_updates
    assert 0 < updates["update_rows"] <= upd.n_updates * upd.rows_per_update
    assert updates["update_writes_completed"] == updates["update_pages_written"]
    assert updates["update_policy_throttled"] == float(upd.policy == "throttled")
    if spec.backend == "dram":
        assert updates["update_pages_written"] == 0
    else:
        assert updates["update_pages_written"] >= upd.n_updates

    # Percentiles stay monotone with writes stealing device time.
    summary = result.summary
    assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
    assert summary["p99_ms"] <= summary["max_ms"]


@pytest.mark.parametrize("knob", ["min_gap_s", "defer_s", "max_defer_s"])
def test_engine_refuses_a_nan_write_timing(knob):
    # Regression: ``min_gap_s < 0 or defer_s <= 0 ...`` let NaN through.
    with pytest.raises(ValueError, match=rf"EmbeddingUpdateEngine\.{knob} must be"):
        EmbeddingUpdateEngine(build_server(toy_model()), **{knob: float("nan")})
