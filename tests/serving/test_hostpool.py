"""Host resource model: pools, oracle bit-identity, contention, reset audit.

The tentpole contract of the hostpool PR, pinned here:

* **Oracle regression** — with ``host_sls_workers=None`` and
  ``dense_workers=1`` (the defaults), serving output is bit-identical
  to the pre-hostpool server.  The oracle is the verbatim legacy code
  path reconstructed at runtime: the scheduler/stages stripped of their
  pool hooks and the legacy ``_dense_busy_until`` completion loop
  (copied verbatim from the pre-PR ``InferenceServer._batch_done``)
  driving completions, exactly like
  ``tests/workload/test_offered_load_regression.py`` keeps the
  pre-workload loop as its oracle.
* **Contention** — bounding either pool strictly raises p99 at
  saturation, and the pool gauges (wait breakdowns, utilization) report.
* **Reset audit** — every gauge the host pools add to ``ServingStats``
  clears on ``reset_stats()``, audited by introspection
  against a freshly built object so new fields cannot dodge the check.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.models.runner import BackendKind
from repro.serving import (
    DenseServiceModel,
    DenseWorkerPool,
    HostSlsPool,
    RowShardPolicy,
    ServingConfig,
    ServingStats,
    TableShardPolicy,
)
from repro.sim.kernel import Simulator
from repro.workload import OpenLoopGenerator, run_workload

from .conftest import build_server, toy_model

RATE = 4000.0          # well past the toy model's NDP capacity
N_REQUESTS = 32


def legacy_on_batch_done(server):
    """Verbatim pre-hostpool ``InferenceServer._batch_done`` (PR 4 state),
    closed over a local ``_dense_busy_until`` — the oracle."""
    state = {"dense_busy_until": 0.0}

    def _batch_done(requests):
        sim = server.sim
        for request in requests:
            finish = sim.now
            model = server.models[request.model]
            if server.config.compute_outputs:
                request.output = model.forward(request.batch.dense, request.values)
            if server.config.dense_stage:
                dense_time = model.dense_time(
                    request.batch.batch_size, server.system.host_cpu
                )
                start = max(sim.now, state["dense_busy_until"])
                finish = start + dense_time
                state["dense_busy_until"] = finish
            sim.schedule_at(finish, lambda r=request: server._complete(r))

    return _batch_done


def strip_host_model(server) -> None:
    """Reconstruct the pre-hostpool code path on a freshly built server:
    no SLS pool in the scheduler gate or the stages, legacy dense loop."""
    server.scheduler.host_sls = None
    server.hostpool.sls.on_free = None
    for pool in server.workers.values():
        for worker in pool:
            worker.stage.sls_pool = None
    server.scheduler.on_batch_done = legacy_on_batch_done(server)


def outputs_of(server):
    stats = server.stats
    return (
        list(stats.latencies),
        list(stats.queue_delays),
        list(stats.emb_latencies),
        stats.completed,
        stats.rejected,
        stats.batches_dispatched,
    )


class TestOracleBitIdentity:
    """Default pools reproduce the legacy serving output bit-for-bit."""

    def _pair(self, sharding=None, num_workers=1, config=None, collect=None):
        results = []
        for legacy in (False, True):
            server = build_server(
                toy_model(),
                serving_config=config,
                num_workers=num_workers,
                sharding=sharding,
            )
            if legacy:
                strip_host_model(server)
            requests = []
            if collect is not None:
                original = server.submit

                def submit(model, batch, **kw):
                    request = original(model, batch, **kw)
                    requests.append(request)
                    return request

                server.submit = submit
            run_workload(
                server,
                OpenLoopGenerator("toy", rate=RATE, n_requests=N_REQUESTS, batch_size=2),
                seed=3,
            )
            results.append((outputs_of(server), requests))
        return results

    def test_default_config_bit_identical_to_legacy_path(self):
        (current, _), (legacy, _) = self._pair()
        assert current == legacy

    def test_sharded_stage_bit_identical_to_legacy_path(self):
        (current, _), (legacy, _) = self._pair(
            sharding=RowShardPolicy(threshold_rows=1024), num_workers=2
        )
        assert current == legacy

    def test_request_values_and_timestamps_bit_identical(self):
        (cur_out, cur_reqs), (leg_out, leg_reqs) = self._pair(collect=True)
        assert cur_out == leg_out
        assert len(cur_reqs) == len(leg_reqs) == N_REQUESTS
        for a, b in zip(cur_reqs, leg_reqs):
            assert (a.t_arrival, a.t_dispatch, a.t_emb_done, a.t_done) == (
                b.t_arrival,
                b.t_dispatch,
                b.t_emb_done,
                b.t_done,
            )
            assert set(a.values) == set(b.values)
            for name in a.values:
                np.testing.assert_array_equal(a.values[name], b.values[name])

    def test_dense_workers_one_matches_default_exactly(self):
        """``dense_workers=1`` is the default: the serialized timeline
        the pre-hostpool server runs."""
        one = build_server(
            toy_model(), serving_config=ServingConfig(dense_workers=1)
        )
        default = build_server(toy_model())
        for server in (one, default):
            run_workload(
                server,
                OpenLoopGenerator("toy", rate=RATE, n_requests=N_REQUESTS, batch_size=2),
                seed=5,
            )
        assert outputs_of(one) == outputs_of(default)


# ----------------------------------------------------------------------
# Pool unit behaviour
# ----------------------------------------------------------------------
class TestHostSlsPool:
    def _pool(self, workers):
        sim = Simulator()
        stats = ServingStats(sim)
        return sim, stats, HostSlsPool(sim, workers, stats)

    def test_unbounded_grants_synchronously(self):
        sim, stats, pool = self._pool(None)
        ran = []
        for i in range(5):
            pool.acquire(lambda i=i: ran.append(i))
        assert ran == list(range(5))
        assert pool.in_use == 5 and pool.has_free
        for _ in range(5):
            pool.release()
        assert pool.in_use == 0
        assert stats.sls_ops == 5 and stats.sls_wait_s == [0.0] * 5
        assert stats.sls_peak_in_use == 5 and stats.sls_peak_queue == 0

    def test_bounded_queues_fifo_and_records_waits(self):
        sim, stats, pool = self._pool(1)
        order = []
        pool.acquire(lambda: order.append("a"))
        pool.acquire(lambda: order.append("b"))
        pool.acquire(lambda: order.append("c"))
        assert order == ["a"] and not pool.has_free and pool.queued == 2
        sim.schedule(1e-3, pool.release)
        sim.schedule(2e-3, pool.release)
        sim.run_until(lambda: len(order) == 3)
        assert order == ["a", "b", "c"]
        assert stats.sls_wait_s == [0.0, 1e-3, 2e-3]
        assert stats.sls_peak_queue == 2
        pool.release()
        assert stats.sls_busy_s == pytest.approx(1e-3 + 1e-3 + 0.0)

    def test_release_without_acquire_raises(self):
        _sim, _stats, pool = self._pool(2)
        with pytest.raises(RuntimeError, match="release"):
            pool.release()

    def test_invalid_worker_count_rejected(self):
        sim = Simulator()
        stats = ServingStats(sim)
        with pytest.raises(ValueError, match=r"HostSlsPool\.workers must be"):
            HostSlsPool(sim, 0, stats)

    def test_on_free_fires_only_with_empty_wait_queue(self):
        sim, _stats, pool = self._pool(1)
        freed = []
        pool.on_free = lambda: freed.append(sim.now)
        pool.acquire(lambda: None)
        pool.acquire(lambda: None)   # queued
        pool.release()               # grants the waiter, no on_free
        assert freed == []
        pool.release()
        assert freed == [sim.now]


class TestDenseWorkerPool:
    def _pool(self, workers, service_s=1e-3):
        sim = Simulator()
        stats = ServingStats(sim)
        model = toy_model()
        service = DenseServiceModel(
            host_cpu=None, service_s_by_model={model.name: service_s}
        )
        return sim, stats, model, DenseWorkerPool(sim, workers, stats, service)

    def test_single_worker_serializes_fifo(self):
        sim, stats, model, pool = self._pool(1)
        done = []
        for i in range(3):
            pool.submit(model, 1, lambda i=i: done.append((i, sim.now)))
        sim.run_until(lambda: len(done) == 3)
        assert done == [(0, 1e-3), (1, 2e-3), (2, 3e-3)]
        assert stats.dense_wait_s == [0.0, 1e-3, 2e-3]
        assert stats.dense_busy_s == pytest.approx(3e-3)
        assert stats.dense_wait_s_by_model[model.name] == stats.dense_wait_s

    def test_two_workers_overlap(self):
        sim, stats, model, pool = self._pool(2)
        done = []
        for i in range(3):
            pool.submit(model, 1, lambda i=i: done.append((i, sim.now)))
        sim.run_until(lambda: len(done) == 3)
        assert done == [(0, 1e-3), (1, 1e-3), (2, 2e-3)]
        assert stats.dense_wait_s == [0.0, 0.0, 1e-3]

    def test_unbounded_starts_everything_immediately(self):
        sim, stats, model, pool = self._pool(None)
        done = []
        for i in range(4):
            pool.submit(model, 1, lambda i=i: done.append(i))
        sim.run_until(lambda: len(done) == 4)
        assert stats.dense_wait_s == [0.0] * 4

    def test_batch_size_scales_override(self):
        _sim, _stats, model, pool = self._pool(None, service_s=2e-3)
        assert pool.service_model.service_s(model, 4) == pytest.approx(8e-3)

    def test_service_model_validation(self):
        with pytest.raises(ValueError, match=r"DenseServiceModel\.scale must be"):
            DenseServiceModel(None, scale=0.0)
        with pytest.raises(ValueError, match=r"DenseServiceModel\.service_s_by_model\['m'\] must be"):
            DenseServiceModel(None, service_s_by_model={"m": -1.0})
        with pytest.raises(ValueError, match=r"DenseServiceModel\.scale must be"):
            DenseServiceModel(None, scale=math.nan)
        with pytest.raises(ValueError, match=r"DenseServiceModel\.service_s_by_model\['m'\] must be"):
            DenseServiceModel(None, service_s_by_model={"m": math.nan})


# ----------------------------------------------------------------------
# End-to-end contention acceptance
# ----------------------------------------------------------------------
class TestHostContention:
    def _p99(self, config):
        server = build_server(toy_model(), serving_config=config)
        stats = run_workload(
            server,
            OpenLoopGenerator("toy", rate=RATE, n_requests=N_REQUESTS, batch_size=2),
            seed=7,
        )
        return server, stats.percentile(0.99)

    def test_bounded_sls_pool_raises_p99_at_saturation(self):
        _unb, p99_unbounded = self._p99(ServingConfig())
        server, p99_bounded = self._p99(ServingConfig(host_sls_workers=1))
        assert p99_bounded > p99_unbounded
        assert server.stats.sls_peak_in_use == 1
        assert server.stats.sls_peak_queue >= 1
        host = server.hostpool_summary()["host_sls"]
        assert host["utilization"] > 0.5
        assert host["mean_wait_ms"] > 0.0

    def test_bounded_dense_pool_raises_p99_at_saturation(self):
        override = {"toy": 5e-4}
        _unb, p99_unbounded = self._p99(
            ServingConfig(dense_workers=0, dense_service_s_by_model=override)
        )
        server, p99_bounded = self._p99(
            ServingConfig(dense_workers=1, dense_service_s_by_model=override)
        )
        assert p99_bounded > p99_unbounded
        host = server.hostpool_summary()["dense"]
        assert host["utilization"] > 0.5
        assert host["mean_wait_ms"] > 0.0

    def test_more_dense_workers_never_hurt(self):
        override = {"toy": 5e-4}
        p99s = [
            self._p99(
                ServingConfig(dense_workers=k, dense_service_s_by_model=override)
            )[1]
            for k in (1, 2, 4)
        ]
        assert p99s[0] >= p99s[1] >= p99s[2]

    def test_dense_wait_recorded_on_requests(self):
        override = {"toy": 5e-4}
        server = build_server(
            toy_model(),
            serving_config=ServingConfig(
                dense_workers=1, dense_service_s_by_model=override
            ),
        )
        done = []
        rng = np.random.default_rng(0)
        model = server.models["toy"]
        for _ in range(8):
            server.submit("toy", model.sample_batch(rng, 2), on_done=done.append)
        server.run_until_settled()
        waits = [r.dense_wait for r in done]
        assert all(w >= 0.0 for w in waits)
        assert max(waits) > 0.0   # the single worker queued
        assert all(r.t_dense_start >= r.t_emb_done >= 0 for r in done)

    def test_scheduler_gate_blocks_dispatch_without_free_worker(self):
        # max_batch_requests=2 would give 3 concurrent batches (2 per
        # worker + the total pool); the single-SLS-worker gate admits 1.
        server = build_server(
            toy_model(),
            serving_config=ServingConfig(host_sls_workers=1, max_batch_requests=2),
        )
        rng = np.random.default_rng(1)
        model = server.models["toy"]
        for _ in range(6):
            server.submit("toy", model.sample_batch(rng, 1))
        # With one SLS worker the gate admits one batch; the rest queue.
        assert server.scheduler.inflight_batches_total == 1
        server.run_until_settled()
        assert server.stats.completed == 6

    @pytest.mark.parametrize("num_workers, merges", [(1, 0), (2, 1)])
    def test_a_merge_holds_a_worker_only_when_the_stage_gathers(
        self, num_workers, merges
    ):
        """Pieces on two shards: every batch's merge wins a worker after
        its table ops.  A plan that lands every piece on one shard has
        nothing to gather and acquires none (it used to)."""
        server = build_server(
            toy_model(),
            serving_config=ServingConfig(host_sls_workers=4),
            num_workers=num_workers,
            sharding=TableShardPolicy(),
        )
        stats = run_workload(
            server,
            OpenLoopGenerator("toy", rate=RATE, n_requests=N_REQUESTS, batch_size=2),
            seed=7,
        )
        tables = len(server.models["toy"].features)
        assert stats.sls_ops == stats.batches_dispatched * (tables + merges)

    def test_dense_workers_validation(self):
        with pytest.raises(ValueError, match="dense_workers"):
            build_server(
                toy_model(), serving_config=ServingConfig(dense_workers=-1)
            )

    @pytest.mark.parametrize(
        "field",
        [
            "max_batch_requests",
            "max_inflight_batches_per_worker",
            "max_inflight_batches_total",
        ],
    )
    def test_batching_bounds_validated_where_they_are_set(self, field):
        """The scheduler reads these off the ServingConfig it is handed;
        the range checks sit on that config, not on a copy of it."""
        with pytest.raises(ValueError, match=field):
            ServingConfig(**{field: 0})

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("dense_workers", -1, "dense_workers"),
            ("host_sls_workers", 0, "host_sls_workers"),
            ("dense_time_scale", 0.0, "dense_time_scale"),
            ("dense_service_s_by_model", {"m": -1.0}, r"ServingConfig\.dense_service_s_by_model\['m'\] must be"),
            ("dense_time_scale", math.nan, "dense_time_scale"),
            ("dense_service_s_by_model", {"m": math.nan}, r"ServingConfig\.dense_service_s_by_model\['m'\] must be"),
        ],
        ids=[
            "dense_workers", "host_sls_workers", "dense_time_scale", "service_override",
            "dense_time_scale_nan", "service_override_nan",
        ],
    )
    def test_host_model_refused_where_it_is_set(self, field, value, match):
        """Refused when the config is built, not when a server reads it."""
        with pytest.raises(ValueError, match=match):
            ServingConfig(**{field: value})


# ----------------------------------------------------------------------
# Reset audit (extends the PR 3 introspection audit to host-pool gauges)
# ----------------------------------------------------------------------
class TestHostPoolResetAudit:
    def _served_stats(self):
        server = build_server(
            toy_model(),
            serving_config=ServingConfig(
                host_sls_workers=1,
                dense_workers=1,
                dense_service_s_by_model={"toy": 2e-4},
            ),
        )
        run_workload(
            server,
            OpenLoopGenerator("toy", rate=RATE, n_requests=12, batch_size=2),
            seed=2,
        )
        return server.stats

    def test_host_gauges_populate_then_reset_clean(self):
        """Introspection audit: after reset_stats(), every attribute — the
        host-pool gauges and anything added since — matches a freshly
        built ServingStats, so new fields cannot dodge the reset."""
        stats = self._served_stats()
        # The audit is only meaningful if the new gauges saw real work.
        assert stats.sls_ops > 0
        assert stats.sls_busy_s > 0.0
        assert stats.sls_peak_in_use == 1
        assert stats.dense_jobs > 0
        assert stats.dense_busy_s > 0.0
        assert stats.dense_wait_s and stats.dense_wait_s_by_model
        stats.reset_stats()
        fresh = ServingStats(stats.sim)

        def state(value):
            slots = getattr(type(value), "__slots__", None)
            if slots:
                return {slot: getattr(value, slot) for slot in slots}
            return value

        recorded = {k: v for k, v in vars(stats).items() if k != "sim"}
        expected = {k: v for k, v in vars(fresh).items() if k != "sim"}
        assert set(recorded) == set(expected)
        for key, value in expected.items():
            assert state(recorded[key]) == state(value), (
                f"reset_stats() left {key!r} dirty"
            )

    def test_summary_reports_host_wait_keys(self):
        stats = self._served_stats()
        summary = stats.summary()
        assert summary["mean_dense_wait_ms"] >= 0.0
        assert summary["mean_sls_wait_ms"] >= 0.0
        stats.reset_stats()
        summary = stats.summary()
        assert summary["mean_dense_wait_ms"] == 0.0
        assert summary["mean_sls_wait_ms"] == 0.0
