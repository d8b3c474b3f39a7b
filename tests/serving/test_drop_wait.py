"""A shed request's wait: ``t_drop`` is stamped when a queued request
is dropped, and ``drop_wait`` is arrival to shed (zero when never
dropped) — the wait the tracer's ``drop`` event reports.  A completed
request's latency splits into queue wait and service; a dropped one
has only the wait."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import ServingConfig
from repro.serving.admission import AdmissionConfig
from repro.serving.request import InferenceRequest, RequestState

from .conftest import build_server, toy_model


def serve_burst(slo=None):
    """A burst deep enough that, under a tight SLO, the queue tail
    expires while the head is being served."""
    model = toy_model()
    admission = (
        AdmissionConfig(deadline_drop=True, slo_by_model={model.name: slo})
        if slo is not None
        else None
    )
    server = build_server(
        model, serving_config=ServingConfig(max_batch_requests=4, admission=admission)
    )
    rng = np.random.default_rng(0)
    requests = [server.submit(model.name, model.sample_batch(rng, 2)) for _ in range(16)]
    server.run_until_settled()
    return server, requests


def test_t_drop_stamped_on_shed_requests():
    server, requests = serve_burst(slo=0.0005)
    dropped = [r for r in requests if r.state is RequestState.DROPPED]
    assert dropped, "burst must shed under this SLO"
    assert len(dropped) == server.stats.dropped
    assert all(0.0 <= r.drop_wait and r.t_drop <= server.sim.now for r in dropped)
    assert all(r.t_drop < 0 for r in requests if r.state is not RequestState.DROPPED)


def test_dropped_requests_never_reach_service():
    """A shed request waited and was never dispatched: it ends at its
    drop, and nothing of it enters the completed-latency population."""
    server, requests = serve_burst(slo=0.0005)
    stats = server.stats
    dropped = [r for r in requests if r.state is RequestState.DROPPED]
    assert dropped and all(r.t_dispatch < 0 and r.t_done == r.t_drop for r in dropped)
    assert stats.completed + stats.dropped == len(requests)
    assert len(stats.latencies) == len(stats.queue_delays) == stats.completed


def test_completed_latency_is_queue_wait_plus_service():
    server, requests = serve_burst()
    stats = server.stats
    assert stats.dropped == 0 and stats.completed == len(requests)
    for r in requests:
        assert r.drop_wait == 0.0
        assert 0.0 <= r.queue_delay <= r.latency
        assert r.latency == pytest.approx(r.queue_delay + (r.t_done - r.t_dispatch))
    assert sorted(stats.latencies) == pytest.approx(sorted(r.latency for r in requests))
    assert sorted(stats.queue_delays) == pytest.approx(sorted(r.queue_delay for r in requests))


def test_request_drop_wait_property():
    request = InferenceRequest(model="m", batch=None, request_id=1)
    request.t_arrival = 1.0
    assert request.drop_wait == 0.0  # never dropped
    request.t_drop = 1.25
    assert request.drop_wait == pytest.approx(0.25)
