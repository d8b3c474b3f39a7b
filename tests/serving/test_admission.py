"""QoS admission: deadline drop, quotas, priority lanes, stats invariants."""

import numpy as np
import pytest

from repro.models.base import Batch
from repro.serving import (
    REASON_CAPACITY,
    REASON_DEADLINE,
    REASON_QUOTA,
    AdmissionConfig,
    InferenceRequest,
    RequestQueue,
    RequestState,
    ServingConfig,
)
from repro.workload import OpenLoopGenerator, run_workload

from .conftest import build_server, toy_model


def make_request(model="m", rid=0):
    batch = Batch(dense=np.zeros((1, 4), np.float32), bags={}, batch_size=1)
    return InferenceRequest(model=model, batch=batch, request_id=rid)


def assert_conserved(stats):
    """The invariant every admission path must preserve."""
    assert stats.submitted == (
        stats.completed + stats.rejected + stats.dropped + stats.inflight
    ), (
        stats.submitted,
        stats.completed,
        stats.rejected,
        stats.dropped,
        stats.inflight,
    )


class TestAdmissionConfig:
    def test_defaults_are_noop(self):
        config = AdmissionConfig()
        assert not config.deadline_drop
        assert config.slo_for("m") is None
        assert config.quota_for("m") is None
        assert config.priority_for("m") == 0
        assert not config.any_deadlines

    def test_validation(self):
        with pytest.raises(ValueError, match="drop_headroom_s"):
            AdmissionConfig(drop_headroom_s=-1.0)
        with pytest.raises(ValueError, match=r"AdmissionConfig\.slo_by_model\['m'\] must be"):
            AdmissionConfig(slo_by_model={"m": 0.0})
        with pytest.raises(ValueError, match=r"AdmissionConfig\.quota_by_model\['m'\] must be"):
            AdmissionConfig(quota_by_model={"m": 0})
        # Regression: NaN was accepted for both; a NaN SLO then missed
        # every deadline of a run that reported no error.
        with pytest.raises(ValueError, match="drop_headroom_s"):
            AdmissionConfig(drop_headroom_s=float("nan"))
        with pytest.raises(ValueError, match=r"AdmissionConfig\.slo_by_model\['m'\] must be"):
            AdmissionConfig(slo_by_model={"m": float("nan")})
        # Regression: ``quota < 1`` let a NaN quota through.
        with pytest.raises(ValueError, match=r"AdmissionConfig\.quota_by_model\['m'\] must be"):
            AdmissionConfig(quota_by_model={"m": float("nan")})

    def test_describe_round_trips_knobs(self):
        config = AdmissionConfig(
            deadline_drop=True,
            slo_by_model={"a": 0.01},
            priority_by_model={"a": 2},
        )
        desc = config.describe()
        assert desc["deadline_drop"] is True
        assert desc["slo_by_model"] == {"a": 0.01}
        assert desc["priority_by_model"] == {"a": 2}


class TestQueueQuotas:
    def test_quota_rejects_before_global_limit(self):
        q = RequestQueue(8, AdmissionConfig(quota_by_model={"a": 2}))
        assert q.offer(make_request("a", 1))
        assert q.offer(make_request("a", 2))
        third = make_request("a", 3)
        assert not q.offer(third)
        assert third.drop_reason == REASON_QUOTA
        # Other models still admitted: the quota is per-lane.
        assert q.offer(make_request("b", 4))
        assert q.inflight == 3

    def test_global_limit_still_wins(self):
        q = RequestQueue(1, AdmissionConfig(quota_by_model={"a": 5}))
        assert q.offer(make_request("a", 1))
        second = make_request("a", 2)
        assert not q.offer(second)
        assert second.drop_reason == REASON_CAPACITY

    def test_release_with_model_restores_quota(self):
        q = RequestQueue(8, AdmissionConfig(quota_by_model={"a": 1}))
        assert q.offer(make_request("a", 1))
        q.pop_batch("a", 1)
        q.release("a")
        assert q.offer(make_request("a", 2))

    def test_release_for_idle_model_raises(self):
        q = RequestQueue(8)
        q.offer(make_request("a", 1))
        with pytest.raises(RuntimeError, match="idle model"):
            q.release("b")

    def test_bare_release_refused_when_quotas_configured(self):
        """Quota accounting would silently corrupt (lane starved forever)
        if a bare release slipped through — it must raise instead."""
        q = RequestQueue(8, AdmissionConfig(quota_by_model={"a": 2}))
        q.offer(make_request("a", 1))
        with pytest.raises(RuntimeError, match="needs the request's model"):
            q.release()
        # Nothing was decremented by the refused call.
        assert q.inflight == 1
        q.release("a")
        assert q.inflight == 0


class TestQueuePriorityLanes:
    def test_higher_priority_lane_served_first(self):
        q = RequestQueue(16, AdmissionConfig(priority_by_model={"hi": 1}))
        q.offer(make_request("lo", 1))
        q.offer(make_request("hi", 2))
        assert q.next_model() == "hi"
        q.pop_batch("hi", 1)
        assert q.next_model() == "lo"

    def test_round_robin_within_a_priority_class(self):
        q = RequestQueue(
            16, AdmissionConfig(priority_by_model={"a": 1, "b": 1})
        )
        for rid in range(2):
            q.offer(make_request("a", rid))
            q.offer(make_request("b", 10 + rid))
        q.offer(make_request("bulk", 20))
        order = []
        while len(q):
            model = q.next_model()
            order.append(model)
            q.pop_batch(model, 1)
        assert order == ["a", "b", "a", "b", "bulk"]

    def test_ready_filter_respects_priority_order(self):
        q = RequestQueue(16, AdmissionConfig(priority_by_model={"hi": 1}))
        q.offer(make_request("lo", 1))
        q.offer(make_request("hi", 2))
        # hi has no free worker this round: lo gets the slot, hi keeps
        # its place at the front of its class.
        assert q.next_model(lambda m: m != "hi") == "lo"
        assert q.next_model() == "hi"


class TestQueueExpiredFilter:
    def test_on_expired_consumes_requests(self):
        q = RequestQueue(16)
        for rid in range(4):
            request = make_request("m", rid)
            request.deadline = 1.0 if rid % 2 == 0 else 100.0
            q.offer(request)
        dropped = []

        def expired(request):
            if request.deadline < 10.0:
                dropped.append(request.request_id)
                q.release("m")
                return True
            return False

        batch = q.pop_batch("m", 4, on_expired=expired)
        assert [r.request_id for r in batch] == [1, 3]
        assert dropped == [0, 2]
        assert q.inflight == 2  # the two batched ones


class TestServerDeadlineDrop:
    def _qos_server(self, slo=0.002, headroom=0.0, **kwargs):
        model = toy_model()
        admission = AdmissionConfig(
            deadline_drop=True,
            drop_headroom_s=headroom,
            slo_by_model={model.name: slo},
        )
        server = build_server(
            model,
            serving_config=ServingConfig(max_batch_requests=4, admission=admission),
            **kwargs,
        )
        return model, server

    def test_expired_requests_dropped_not_served(self):
        model, server = self._qos_server(slo=0.0005)
        rng = np.random.default_rng(0)
        # A burst deep enough that the tail of the queue expires while
        # the head is being served.
        requests = [
            server.submit(model.name, model.sample_batch(rng, 2))
            for _ in range(16)
        ]
        server.run_until_settled()
        stats = server.stats
        dropped = [r for r in requests if r.state is RequestState.DROPPED]
        assert dropped, "expected deadline drops under this burst"
        assert stats.dropped == len(dropped)
        assert all(r.drop_reason == REASON_DEADLINE for r in dropped)
        assert all(r.t_done >= r.t_arrival for r in dropped)
        assert stats.drops_by_reason == {REASON_DEADLINE: len(dropped)}
        assert_conserved(stats)

    def test_on_done_fires_for_dropped_requests(self):
        model, server = self._qos_server(slo=0.0005)
        rng = np.random.default_rng(0)
        seen = []
        for _ in range(16):
            server.submit(
                model.name, model.sample_batch(rng, 2), on_done=seen.append
            )
        server.run_until_settled()
        assert len(seen) == 16
        assert any(r.state is RequestState.DROPPED for r in seen)
        assert all(r.done for r in seen)

    def test_submit_already_expired_rejected_up_front(self):
        model, server = self._qos_server()
        rng = np.random.default_rng(0)
        request = server.submit(
            model.name, model.sample_batch(rng, 1), deadline=-1.0
        )
        assert request.state is RequestState.REJECTED
        assert request.drop_reason == REASON_DEADLINE
        assert server.stats.rejects_by_reason == {REASON_DEADLINE: 1}
        assert server.queue.inflight == 0
        assert_conserved(server.stats)

    def test_without_deadline_drop_late_requests_still_served(self):
        model = toy_model()
        admission = AdmissionConfig(slo_by_model={model.name: 0.0005})
        server = build_server(
            model,
            serving_config=ServingConfig(max_batch_requests=4, admission=admission),
        )
        rng = np.random.default_rng(0)
        requests = [
            server.submit(model.name, model.sample_batch(rng, 2))
            for _ in range(16)
        ]
        server.run_until_settled()
        assert all(r.state is RequestState.COMPLETE for r in requests)
        stats = server.stats
        assert stats.dropped == 0
        # ...but the SLO still splits completions into goodput vs misses.
        assert stats.goodput + stats.deadline_misses == stats.completed
        assert stats.deadline_misses > 0
        assert_conserved(stats)

    def test_headroom_drops_doomed_requests_earlier(self):
        base_model, base_server = self._qos_server(slo=0.002, headroom=0.0)
        rng = np.random.default_rng(1)
        for _ in range(16):
            base_server.submit(base_model.name, base_model.sample_batch(rng, 2))
        base_server.run_until_settled()
        model, server = self._qos_server(slo=0.002, headroom=0.0015)
        rng = np.random.default_rng(1)
        for _ in range(16):
            server.submit(model.name, model.sample_batch(rng, 2))
        server.run_until_settled()
        assert server.stats.dropped >= base_server.stats.dropped
        assert_conserved(server.stats)

    def test_goodput_rps_bounded_by_throughput(self):
        model, server = self._qos_server(slo=0.003)
        rng = np.random.default_rng(2)
        for _ in range(12):
            server.submit(model.name, model.sample_batch(rng, 1))
        server.run_until_settled()
        stats = server.stats
        assert 0.0 <= stats.goodput_rps() <= stats.throughput_rps() + 1e-9
        summary = stats.summary()
        assert summary["goodput"] <= summary["completed"]


class TestServerQuotasAndPriorities:
    def test_quota_rejections_reported_per_lane(self):
        model_a = toy_model(name="a", seed=1)
        model_b = toy_model(name="b", seed=2)
        admission = AdmissionConfig(quota_by_model={"a": 2})
        server = build_server(
            [model_a, model_b],
            serving_config=ServingConfig(
                max_inflight_requests=16, admission=admission
            ),
        )
        rng = np.random.default_rng(0)
        for _ in range(5):
            server.submit("a", model_a.sample_batch(rng, 1))
        for _ in range(5):
            server.submit("b", model_b.sample_batch(rng, 1))
        stats = server.stats
        assert stats.rejected_by_model.get("a") == 3
        assert "b" not in stats.rejected_by_model
        assert stats.rejects_by_reason == {REASON_QUOTA: 3}
        server.run_until_settled()
        assert_conserved(stats)
        lanes = stats.lane_summary()
        assert lanes["a"]["rejected"] == 3
        assert lanes["a"]["completed"] == 2
        assert lanes["b"]["completed"] == 5

    def test_priority_lane_protects_goodput_under_symmetric_overload(self):
        """Same model shape, same offered load, same SLO — the only
        difference is the priority lane.  Its requests reach the device
        first at every contended dispatch point, so under deadline-drop
        overload the hi lane converts strictly more of its traffic into
        within-deadline completions than the lo lane."""
        model_hi = toy_model(name="hi", seed=1)
        model_lo = toy_model(name="lo", seed=2)
        admission = AdmissionConfig(
            deadline_drop=True,
            drop_headroom_s=0.004,
            slo_by_model={"hi": 0.005, "lo": 0.005},
            priority_by_model={"hi": 1},
        )
        server = build_server(
            [model_lo, model_hi],  # registration order must not matter
            serving_config=ServingConfig(
                max_batch_requests=2,
                # The shared dispatch pool both lanes contend for — the
                # resource priority arbitrates.
                max_inflight_batches_total=2,
                admission=admission,
            ),
        )
        stats = run_workload(
            server,
            [
                OpenLoopGenerator(name, rate=3000.0, n_requests=30, batch_size=2)
                for name in ("hi", "lo")
            ],
            seed=5,
        )
        lanes = stats.lane_summary()
        # Goodput is the honest lane metric here; per-lane p95 is biased
        # under drops (it censors exactly the requests that queued).
        assert lanes["hi"]["goodput_frac"] > lanes["lo"]["goodput_frac"], lanes
        assert_conserved(stats)

    def test_request_priority_stamped_from_lane_config(self):
        model_hi = toy_model(name="hi", seed=1)
        model_lo = toy_model(name="lo", seed=2)
        admission = AdmissionConfig(priority_by_model={"hi": 1})
        server = build_server(
            [model_lo, model_hi],
            serving_config=ServingConfig(admission=admission),
        )
        rng = np.random.default_rng(0)
        hi = server.submit("hi", model_hi.sample_batch(rng, 1))
        lo = server.submit("lo", model_lo.sample_batch(rng, 1))
        assert hi.priority == 1 and lo.priority == 0
        server.run_until_settled()


class TestStatsInvariantsUnderReset:
    def test_reset_mid_flight_keeps_invariant_in_new_window(self):
        model, server = TestServerDeadlineDrop()._qos_server(slo=0.0008)
        rng = np.random.default_rng(3)
        for _ in range(10):
            server.submit(model.name, model.sample_batch(rng, 2))
        stats = server.stats
        live = stats.inflight
        assert live > 0
        stats.reset_stats()
        # Fresh window: nothing submitted yet, live requests still gauged.
        assert stats.submitted == 0
        assert stats.inflight == live
        server.run_until_settled()
        # Completions/drops of pre-reset requests land in the new window:
        # submitted (0) != completed + ... but the gauge nets out to the
        # overhang exactly.
        assert stats.inflight == 0
        assert stats.completed + stats.dropped == live
        # A fresh post-reset wave: the invariant holds modulo the
        # overhang (pre-reset live requests whose terminal events landed
        # in this window).
        for _ in range(6):
            server.submit(model.name, model.sample_batch(rng, 1))
        server.run_until_settled()
        assert stats.submitted == 6
        assert stats.submitted + live == (
            stats.completed + stats.rejected + stats.dropped + stats.inflight
        )

    def test_reset_clears_every_qos_counter(self):
        model, server = TestServerDeadlineDrop()._qos_server(slo=0.0005)
        rng = np.random.default_rng(4)
        for _ in range(16):
            server.submit(model.name, model.sample_batch(rng, 2))
        server.submit(model.name, model.sample_batch(rng, 1), deadline=-1.0)
        server.run_until_settled()
        stats = server.stats
        assert stats.dropped > 0 and stats.rejected > 0
        stats.reset_stats()
        assert stats.dropped == 0
        assert stats.goodput == 0
        assert stats.deadline_misses == 0
        assert stats.drops_by_reason == {}
        assert stats.rejects_by_reason == {}
        assert stats.dropped_by_model == {}
        assert stats.goodput_by_model == {}
        assert stats.latencies_by_model == {}
        assert stats.submitted_by_model == {}
        assert stats.lane_summary() == {}

    def test_rejection_and_drop_paths_sum_with_offered_load(self):
        model = toy_model()
        admission = AdmissionConfig(
            deadline_drop=True, slo_by_model={model.name: 0.003}
        )
        server = build_server(
            model,
            serving_config=ServingConfig(
                max_inflight_requests=6, admission=admission
            ),
        )
        stats = run_workload(
            server,
            OpenLoopGenerator(model.name, rate=6000.0, n_requests=40, batch_size=2),
            seed=9,
        )
        assert stats.rejected > 0, "overload should reject at the limit"
        assert stats.settled == 40
        assert stats.inflight == 0
        assert_conserved(stats)
        lanes = stats.lane_summary()
        lane = lanes[model.name]
        assert lane["submitted"] == 40
        assert (
            lane["completed"] + lane["rejected"] + lane["dropped"] == 40
        )
