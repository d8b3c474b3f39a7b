"""RequestQueue admission, FIFO ordering and cross-model fairness."""

import numpy as np
import pytest

from repro.models.base import Batch
from repro.serving import InferenceRequest, RequestQueue


def make_request(model="m", rid=0):
    batch = Batch(dense=np.zeros((1, 4), np.float32), bags={}, batch_size=1)
    return InferenceRequest(model=model, batch=batch, request_id=rid)


class TestAdmission:
    def test_offer_within_limit(self):
        q = RequestQueue(max_inflight=2)
        assert q.offer(make_request(rid=1))
        assert q.offer(make_request(rid=2))
        assert q.inflight == 2
        assert len(q) == 2

    def test_offer_beyond_limit_rejected(self):
        q = RequestQueue(max_inflight=1)
        assert q.offer(make_request(rid=1))
        assert not q.offer(make_request(rid=2))
        assert q.inflight == 1

    def test_release_frees_slot(self):
        q = RequestQueue(max_inflight=1)
        assert q.offer(make_request(rid=1))
        q.pop_batch("m", 1)
        q.release()  # request completed
        assert q.offer(make_request(rid=2))

    def test_release_without_offer_raises(self):
        q = RequestQueue(max_inflight=1)
        with pytest.raises(RuntimeError):
            q.release()

    def test_bad_limit_rejected(self):
        with pytest.raises(ValueError, match=r"RequestQueue\.max_inflight must be"):
            RequestQueue(max_inflight=0)

    def test_dispatched_requests_still_count_against_limit(self):
        q = RequestQueue(max_inflight=2)
        q.offer(make_request(rid=1))
        q.offer(make_request(rid=2))
        q.pop_batch("m", 2)  # dispatched, not yet released
        assert len(q) == 0
        assert not q.offer(make_request(rid=3))


class TestOrderingAndFairness:
    def test_fifo_within_lane(self):
        q = RequestQueue(max_inflight=8)
        for rid in range(5):
            q.offer(make_request(rid=rid))
        popped = q.pop_batch("m", 3)
        assert [r.request_id for r in popped] == [0, 1, 2]
        popped = q.pop_batch("m", 3)
        assert [r.request_id for r in popped] == [3, 4]

    def test_round_robin_across_models(self):
        q = RequestQueue(max_inflight=16)
        for rid in range(3):
            q.offer(make_request(model="a", rid=rid))
        for rid in range(3):
            q.offer(make_request(model="b", rid=10 + rid))
        order = []
        while len(q):
            model = q.next_model()
            order.append(model)
            q.pop_batch(model, 1)
        assert order == ["a", "b", "a", "b", "a", "b"]

    def test_next_model_skips_not_ready_without_losing_turn(self):
        q = RequestQueue(max_inflight=16)
        q.offer(make_request(model="a", rid=1))
        q.offer(make_request(model="b", rid=2))
        # "a" has no free worker this round; "b" is chosen instead.
        assert q.next_model(lambda m: m != "a") == "b"
        q.pop_batch("b", 1)
        # "a" kept its place at the front of the rotation.
        assert q.next_model() == "a"

    def test_next_model_none_when_nothing_ready(self):
        q = RequestQueue(max_inflight=16)
        assert q.next_model() is None
        q.offer(make_request(model="a", rid=1))
        assert q.next_model(lambda m: False) is None

    def test_emptied_lane_leaves_rotation(self):
        q = RequestQueue(max_inflight=16)
        q.offer(make_request(model="a", rid=1))
        q.offer(make_request(model="b", rid=2))
        q.pop_batch("a", 5)
        assert q.next_model() == "b"
        q.pop_batch("b", 5)
        assert q.next_model() is None
