"""Load generators: arrival traces, open/closed loops, replay, determinism."""

import numpy as np
import pytest

from repro.serving import ServingConfig
from repro.workload import (
    ArrivalTrace,
    ClosedLoopGenerator,
    OpenLoopGenerator,
    poisson_gaps,
    run_workload,
    uniform_gaps,
)

from ..serving.conftest import build_server, toy_model

NAN, INF = float("nan"), float("inf")


class TestArrivalTrace:
    def test_poisson_trace_shape(self):
        trace = ArrivalTrace.poisson("m", rate=1000.0, n=50, rng_or_seed=3)
        assert trace.n_requests == 50
        assert trace.duration_s > 0
        assert np.all(np.diff(trace.times) >= 0)
        # Mean rate in the right ballpark for a Poisson process.
        assert 400.0 < trace.offered_rps < 2500.0

    def test_uniform_trace_exact_rate(self):
        trace = ArrivalTrace.uniform("m", rate=500.0, n=20)
        assert trace.offered_rps == pytest.approx(500.0)
        assert np.allclose(np.diff(trace.times), 1 / 500.0)

    def test_trace_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            ArrivalTrace("m", np.array([0.2, 0.1]))
        with pytest.raises(ValueError, match=">= 0"):
            ArrivalTrace("m", np.array([-0.1, 0.2]))
        with pytest.raises(ValueError, match=r"poisson_gaps\.rate must be"):
            poisson_gaps(0.0, 5)
        with pytest.raises(ValueError, match=r"uniform_gaps\.rate must be"):
            uniform_gaps(-1.0, 5)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: poisson_gaps(NAN, 5),
            lambda: poisson_gaps(INF, 5),
            lambda: uniform_gaps(NAN, 5),
            lambda: uniform_gaps(INF, 5),
            lambda: ArrivalTrace.uniform("m", INF, 5),
            lambda: ArrivalTrace.poisson("m", NAN, 5),
        ],
        ids=["poisson-nan", "poisson-inf", "uniform-nan", "uniform-inf",
             "trace-uniform-inf", "trace-poisson-nan"],
    )
    def test_rate_must_be_finite(self, make):
        # Regression: NaN drew NaN gaps; an infinite rate put every
        # arrival at t = 0, which OpenLoopGenerator refuses.
        with pytest.raises(ValueError, match=r"(poisson|uniform)_gaps\.rate must be"):
            make()

    def test_same_seed_same_trace(self):
        a = ArrivalTrace.poisson("m", 800.0, 30, rng_or_seed=9)
        b = ArrivalTrace.poisson("m", 800.0, 30, rng_or_seed=9)
        assert np.array_equal(a.times, b.times)


class TestGeneratorValidation:
    def test_open_loop_needs_rate_or_arrivals(self):
        with pytest.raises(ValueError, match="rate"):
            OpenLoopGenerator("m", rate=None, n_requests=5)
        with pytest.raises(ValueError, match="n_requests"):
            OpenLoopGenerator("m", rate=100.0, n_requests=0)
        gen = OpenLoopGenerator("m", arrivals=np.array([0.0, 0.1]))
        assert gen.total_requests == 2

    def test_closed_loop_validation(self):
        with pytest.raises(ValueError, match=r"ClosedLoopGenerator\.num_clients must be"):
            ClosedLoopGenerator("m", num_clients=0, requests_per_client=1)
        with pytest.raises(ValueError, match=r"ClosedLoopGenerator\.requests_per_client must be"):
            ClosedLoopGenerator("m", num_clients=1, requests_per_client=0)
        gen = ClosedLoopGenerator("m", num_clients=3, requests_per_client=4)
        assert gen.total_requests == 12

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda: OpenLoopGenerator("m", rate=NAN, n_requests=5), "rate"),
            (lambda: OpenLoopGenerator("m", rate=INF, n_requests=5), "rate"),
            (lambda: OpenLoopGenerator("m", arrivals=[0.0, NAN, 1.0]), "finite"),
            (lambda: OpenLoopGenerator("m", arrivals=[0.0, INF]), "finite"),
            (lambda: OpenLoopGenerator("m", arrivals=[-1.0, 0.0]), ">= 0"),
            (lambda: ArrivalTrace("m", np.array([0.0, NAN])), "finite"),
            (lambda: ClosedLoopGenerator("m", 1, 1, think_time_s=NAN), "think_time_s"),
            (lambda: ClosedLoopGenerator("m", 1, 1, think_time_s=INF), "think_time_s"),
        ],
        ids=[
            "rate-nan", "rate-inf", "arrivals-nan", "arrivals-inf",
            "arrivals-negative", "trace-nan", "think-nan", "think-inf",
        ],
    )
    def test_non_finite_or_negative_inputs_are_refused(self, make, match):
        # Regression: each was accepted.  A NaN rate blew up mid-run as a
        # SimError, an infinite one put every arrival at t = now, and NaN
        # passed the trace's ``< 0`` checks.
        with pytest.raises(ValueError, match=match):
            make()

    def test_unknown_model_raises_at_schedule(self):
        server = build_server(toy_model())
        gen = OpenLoopGenerator("nope", rate=100.0, n_requests=2)
        with pytest.raises(KeyError):
            run_workload(server, gen)

    def test_run_workload_needs_generators(self):
        server = build_server(toy_model())
        with pytest.raises(ValueError, match="generator"):
            run_workload(server, [])


class TestClosedLoop:
    def test_every_client_turn_settles(self):
        model = toy_model()
        server = build_server(model)
        gen = ClosedLoopGenerator(
            model.name, num_clients=4, requests_per_client=5, think_time_s=0.0005
        )
        stats = run_workload(server, gen, seed=7)
        assert stats.settled == 20
        assert stats.completed == 20
        assert stats.inflight == 0

    def test_outstanding_bounded_by_population(self):
        model = toy_model()
        server = build_server(model)
        gen = ClosedLoopGenerator(
            model.name, num_clients=3, requests_per_client=6, think_time_s=0.0
        )
        stats = run_workload(server, gen, seed=1)
        assert stats.max_inflight <= 3
        assert stats.completed == 18

    def test_deterministic_for_seed(self):
        def once():
            model = toy_model()
            server = build_server(model)
            gen = ClosedLoopGenerator(
                model.name,
                num_clients=4,
                requests_per_client=4,
                think_time_s=0.001,
            )
            return run_workload(server, gen, seed=13)

        a, b = once(), once()
        assert a.latencies == b.latencies
        assert a.summary() == b.summary()

    def test_think_time_slower_than_zero_think(self):
        def tput(think):
            model = toy_model()
            server = build_server(model)
            gen = ClosedLoopGenerator(
                model.name,
                num_clients=2,
                requests_per_client=6,
                think_time_s=think,
            )
            return run_workload(server, gen, seed=3).throughput_rps()

        assert tput(0.01) < tput(0.0)

    def test_self_throttles_instead_of_queueing(self):
        """Closed-loop offered load adapts to service speed: no rejects,
        no unbounded queue, even with a tiny admission limit."""
        model = toy_model()
        server = build_server(
            model, serving_config=ServingConfig(max_inflight_requests=4)
        )
        gen = ClosedLoopGenerator(
            model.name, num_clients=4, requests_per_client=5
        )
        stats = run_workload(server, gen, seed=5)
        assert stats.rejected == 0
        assert stats.completed == 20


class TestTraceReplay:
    def test_replay_arrivals_match_trace(self):
        model = toy_model()
        server = build_server(model)
        trace = ArrivalTrace.poisson(model.name, 2000.0, 15, rng_or_seed=4)
        start = server.sim.now
        gen = OpenLoopGenerator(trace.model, arrivals=trace.times, batch_size=2)
        gen.schedule(server, np.random.default_rng(0))
        server.sim.run_until(lambda: server.stats.settled >= 15)
        assert server.stats.submitted == 15
        # The first arrival landed exactly on the trace's first offset.
        assert server.stats.first_arrival == pytest.approx(
            start + trace.times[0]
        )

    def test_replay_twice_identical(self):
        trace = ArrivalTrace.poisson("toy", 1500.0, 20, rng_or_seed=8)

        def once():
            model = toy_model()
            server = build_server(model)
            generator = OpenLoopGenerator(trace.model, arrivals=trace.times, batch_size=2)
            return run_workload(server, generator, seed=21)

        a, b = once(), once()
        assert a.latencies == b.latencies

    def test_locality_sampled_replay_drives_serving(self):
        """Fig 4-shaped id streams through the full serving path: the
        trace generators' ids must actually feed the submitted batches."""
        from repro.traces import LocalityTraceGenerator

        model = toy_model()
        server = build_server(model)
        generators = {
            # stack_scale small enough that re-references stay inside
            # the short stack this brief trace builds up.
            f.name: LocalityTraceGenerator(
                table_rows=f.spec.rows, k=0.0, seed=11 + i, stack_scale=8.0
            )
            for i, f in enumerate(model.features)
        }
        samplers = {name: gen.generate for name, gen in generators.items()}
        trace = ArrivalTrace.uniform(model.name, 1000.0, 12)
        stats = run_workload(
            server,
            OpenLoopGenerator(
                trace.model, arrivals=trace.times, batch_size=2, samplers=samplers
            ),
            seed=2,
        )
        assert stats.completed == 12
        # The locality generators were consumed (ids came from them) and
        # K=0 means heavy reuse: far fewer first-touch rows than lookups.
        per_table_lookups = 12 * 2 * model.features[0].lookups
        for feature in model.features:
            fresh = generators[feature.name].unique_rows_seen
            assert 0 < fresh < 0.5 * per_table_lookups, (feature.name, fresh)


class TestMixedWorkloads:
    def test_open_and_closed_generators_share_one_server(self):
        model_a = toy_model(name="a", seed=1)
        model_b = toy_model(name="b", seed=2)
        server = build_server([model_a, model_b])
        stats = run_workload(
            server,
            [
                OpenLoopGenerator("a", rate=1200.0, n_requests=10, batch_size=2),
                ClosedLoopGenerator(
                    "b", num_clients=2, requests_per_client=5, think_time_s=0.001
                ),
            ],
            seed=6,
        )
        assert stats.settled == 20
        lanes = stats.lane_summary()
        assert lanes["a"]["submitted"] == 10
        assert lanes["b"]["submitted"] == 10
