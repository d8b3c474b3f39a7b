"""BatchScheduler coalescing, scatter correctness and dispatch fairness."""

import numpy as np

from repro.core.bags import Bags
from repro.models.base import Batch
from repro.models.runner import BackendKind
from repro.serving import ServingConfig

from .conftest import build_server, toy_model


def submit_burst(server, model, n, batch_size=1, seed=0):
    rng = np.random.default_rng(seed)
    return [
        server.submit(model.name, model.sample_batch(rng, batch_size))
        for _ in range(n)
    ]


class TestCoalescing:
    def test_burst_coalesces_into_fewer_batches(self):
        model = toy_model()
        server = build_server(
            model, serving_config=ServingConfig(max_batch_requests=4)
        )
        requests = submit_burst(server, model, 8)
        server.run_until_settled()
        assert all(r.latency > 0 for r in requests)
        # 8 requests, <=2 initially dispatched singly, the rest coalesced.
        assert server.stats.batches_dispatched < 8
        assert server.stats.requests_per_batch.maximum > 1

    def test_max_batch_requests_respected(self):
        model = toy_model()
        server = build_server(
            model, serving_config=ServingConfig(max_batch_requests=3)
        )
        submit_burst(server, model, 9)
        server.run_until_settled()
        assert server.stats.requests_per_batch.maximum <= 3

    def test_scattered_values_match_reference(self):
        model = toy_model()
        server = build_server(
            model, serving_config=ServingConfig(max_batch_requests=4)
        )
        requests = submit_burst(server, model, 6, batch_size=2, seed=3)
        server.run_until_settled()
        for request in requests:
            ref = model.reference_emb(request.batch)
            for name, expected in ref.items():
                assert request.values[name].shape == expected.shape
                assert np.allclose(
                    request.values[name], expected, rtol=1e-4, atol=1e-5
                ), name

    def test_ragged_requests_coalesce_and_get_their_own_rows_back(self):
        """Requests of different batch sizes and ragged bags, some holding
        lists of arrays and some a ``Bags``, merged by ``Bags.concat``:
        the spans ``_dispatch`` records slice each one's bags out of what
        the stage was handed, and its rows out of the result — on DRAM,
        bit for bit what the request would have got alone."""
        model = toy_model()
        server = build_server(
            model, BackendKind.DRAM,
            ServingConfig(max_batch_requests=8, max_inflight_batches_per_worker=1),
        )
        rng = np.random.default_rng(5)
        handed, recorded = [], []
        (worker,) = server.workers[model.name]
        start, batch_done = worker.stage.start, server.scheduler._batch_done

        def spy_start(bags_by_table, on_done):
            handed.append(bags_by_table)
            start(bags_by_table, on_done)

        def spy_batch_done(worker, requests, spans, result, batch_span=None):
            recorded.append((requests, spans))
            batch_done(worker, requests, spans, result, batch_span)

        worker.stage.start = spy_start
        server.scheduler._batch_done = spy_batch_done

        def ragged(batch_size, as_bags):
            bags = {}
            for feature in model.features:
                lists = [
                    rng.integers(0, feature.spec.rows, size=rng.integers(0, 6))
                    for _ in range(batch_size)
                ]
                bags[feature.name] = Bags.of(lists) if as_bags else lists
            dense = np.zeros((batch_size, model.dense_in), np.float32)
            return Batch(dense=dense, bags=bags, batch_size=batch_size)

        requests = [
            server.submit(model.name, ragged(size, as_bags))
            for size, as_bags in ((1, True), (3, False), (1, False), (2, True), (4, False))
        ]
        server.run_until_settled()
        # The first went alone (its Bags untouched); the rest coalesced.
        assert [len(group) for group, _spans in recorded] == [1, 4]
        assert handed[0][model.features[0].name] is requests[0].batch.bags[model.features[0].name]
        for merged, (group, spans) in zip(handed, recorded):
            for request, span in zip(group, spans):
                for name, (lo, hi) in span.items():
                    own = request.batch.bags[name]
                    assert hi - lo == len(own) == request.batch.batch_size
                    assert all(
                        np.array_equal(a, b) for a, b in zip(merged[name][lo:hi], own)
                    )
                    assert np.array_equal(
                        request.values[name], model.tables[name].ref_sls(own)
                    )

    def test_fifo_dispatch_order_within_model(self):
        model = toy_model()
        server = build_server(
            model, serving_config=ServingConfig(max_batch_requests=1)
        )
        requests = submit_burst(server, model, 5)
        server.run_until_settled()
        dispatches = [r.t_dispatch for r in requests]
        assert dispatches == sorted(dispatches)
        completions = [r.t_done for r in requests]
        assert completions == sorted(completions)


class TestFairnessAndWorkers:
    def test_two_models_interleave(self):
        model_a = toy_model(name="a", seed=1)
        model_b = toy_model(name="b", seed=2)
        server = build_server(
            [model_a, model_b],
            serving_config=ServingConfig(max_batch_requests=2),
        )
        rng = np.random.default_rng(0)
        requests = []
        for _ in range(6):
            requests.append(server.submit("a", model_a.sample_batch(rng, 1)))
        for _ in range(6):
            requests.append(server.submit("b", model_b.sample_batch(rng, 1)))
        server.run_until_settled()
        by_dispatch = sorted(requests, key=lambda r: (r.t_dispatch, r.request_id))
        first_half = {r.model for r in by_dispatch[:6]}
        # Round-robin lanes: b is not starved behind a's backlog.
        assert first_half == {"a", "b"}

    def test_multiple_workers_share_load(self):
        model = toy_model()
        server = build_server(
            model,
            num_workers=2,
            serving_config=ServingConfig(max_batch_requests=1),
        )
        assert len(server.system.devices) == 2
        submit_burst(server, model, 8)
        server.run_until_settled()
        done = [w.batches_done for w in server.workers[model.name]]
        assert sum(done) == 8
        assert all(n > 0 for n in done)  # both devices served batches

    def test_replica_workers_produce_identical_values(self):
        model = toy_model()
        server = build_server(
            model,
            num_workers=2,
            serving_config=ServingConfig(max_batch_requests=1),
        )
        requests = submit_burst(server, model, 4, batch_size=2, seed=9)
        server.run_until_settled()
        for request in requests:
            ref = model.reference_emb(request.batch)
            for name, expected in ref.items():
                assert np.allclose(
                    request.values[name], expected, rtol=1e-4, atol=1e-5
                )
