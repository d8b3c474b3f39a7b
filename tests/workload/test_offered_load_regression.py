"""Open-loop traffic on the workload stack stays bit-identical.

Open-loop scheduling lives in :class:`repro.workload.OpenLoopGenerator`
driven by :func:`repro.workload.run_workload`; these tests pin the contract
that existing seeded experiments (benchmarks, figures, golden numbers)
reproduce *exactly*: the legacy generation order — per model, one gap
vector, then one sampled batch per arrival, all from a single shared
RNG, arrival times accumulated by sequential float addition — is
replayed verbatim against an inline copy of the pre-refactor loop,
with uniform ids and with per-table Zipf streams (which the generator
now draws once per schedule, not once per request).
"""

import numpy as np

from repro.traces import ZipfTraceGenerator
from repro.workload import ArrivalTrace, OpenLoopGenerator, run_workload

from ..serving.conftest import build_server, toy_model


def legacy_run_offered_load(
    server, loads, n_requests, batch_size=1, seed=0, samplers=None
):
    """Verbatim pre-workload implementation (PR 1), kept as the oracle."""
    if not loads:
        raise ValueError("need at least one (model, rate) load")
    rng = np.random.default_rng(seed)
    sim = server.sim
    for model_name, rate in loads.items():
        if rate <= 0:
            raise ValueError(f"rate for {model_name!r} must be positive")
        model = server.models[model_name]
        gaps = rng.exponential(1.0 / rate, size=n_requests)
        arrival = sim.now
        for gap in gaps:
            arrival += float(gap)
            batch = model.sample_batch(rng, batch_size, samplers=samplers)
            sim.schedule_at(
                arrival,
                lambda m=model_name, b=batch: server.submit(m, b),
            )
    target = server.stats.settled + len(loads) * n_requests
    sim.run_until(lambda: server.stats.settled >= target)
    return server.stats


class TestBitIdenticalRefactor:
    def _pair(
        self, n_requests, batch_size, models=None, loads=None, seed=0, samplers=None
    ):
        """``samplers`` builds a fresh sampler dict for a list of models,
        one per side, so neither side reads a stream the other drew."""
        if models is None:
            models = [toy_model()]
            loads = {"toy": 1500.0}
        samplers = samplers or (lambda _models: None)
        legacy_models = list(map(_clone, models))
        legacy = legacy_run_offered_load(
            build_server(legacy_models),
            loads,
            n_requests,
            batch_size=batch_size,
            seed=seed,
            samplers=samplers(legacy_models),
        )
        current_models = list(map(_clone, models))
        current_samplers = samplers(current_models)
        current = run_workload(
            build_server(current_models),
            [
                OpenLoopGenerator(
                    name,
                    rate=rate,
                    n_requests=n_requests,
                    batch_size=batch_size,
                    samplers=current_samplers,
                )
                for name, rate in loads.items()
            ],
            seed=seed,
        )
        return legacy, current

    def test_single_model_bit_identical(self):
        for seed in (0, 11, 23):
            legacy, current = self._pair(seed=seed, n_requests=30, batch_size=2)
            assert legacy.latencies == current.latencies, seed
            assert legacy.queue_delays == current.queue_delays, seed
            assert legacy.summary() == current.summary(), seed

    def test_multi_model_dict_order_bit_identical(self):
        models = [("a", 1), ("b", 2)]
        loads = {"a": 900.0, "b": 1200.0}
        legacy, current = self._pair(
            models=models, loads=loads, seed=5, n_requests=15, batch_size=2
        )
        assert legacy.latencies == current.latencies
        assert legacy.completed_by_model == current.completed_by_model

    def test_zipf_samplers_bit_identical(self):
        """Each table's Zipf stream is drawn once for the whole schedule
        and cut per request; the oracle draws it per request."""
        for seed in (0, 11):
            legacy, current = self._pair(
                seed=seed, n_requests=30, batch_size=2, samplers=_zipf_samplers()
            )
            assert legacy.latencies == current.latencies, seed
            assert legacy.summary() == current.summary(), seed

    def test_zipf_on_some_tables_bit_identical(self):
        """A uniform table beside a Zipf one: the shared RNG still draws
        per request, dense then the uniform table, between the streams."""
        models = [("a", 1), ("b", 2)]
        loads = {"a": 900.0, "b": 1200.0}
        legacy, current = self._pair(
            models=models,
            loads=loads,
            seed=5,
            n_requests=15,
            batch_size=2,
            samplers=_zipf_samplers(every=2),
        )
        assert legacy.latencies == current.latencies
        assert legacy.summary() == current.summary()

    def test_the_seed_alone_decides_the_run(self):
        def once(seed):
            return run_workload(
                build_server(toy_model()),
                OpenLoopGenerator("toy", rate=1500.0, n_requests=20, batch_size=2),
                seed=seed,
            )

        assert once(23).latencies == once(23).latencies
        assert once(23).latencies != once(999).latencies

    def test_pregenerated_arrivals_replay_identically(self):
        trace = ArrivalTrace.poisson("toy", 1500.0, 25, rng_or_seed=42)

        def once():
            return run_workload(
                build_server(toy_model()),
                OpenLoopGenerator("toy", batch_size=2, arrivals=trace.times),
                seed=7,
            )

        a, b = once(), once()
        assert a.latencies == b.latencies
        # And the arrivals really came from the trace, not the rate.
        assert a.first_arrival == trace.times[0]

    def test_replicate_policy_serving_bit_identical(self):
        """Legacy replicated serving (no policy) and an explicit
        ReplicatePolicy serve open-loop traffic identically."""
        from repro.serving import ReplicatePolicy

        def run(sharding):
            server = build_server(
                toy_model(), num_workers=2, sharding=sharding
            )
            return run_workload(
                server,
                OpenLoopGenerator("toy", rate=1500.0, n_requests=24, batch_size=2),
                seed=11,
            )

        none_stats = run(None)
        policy_stats = run(ReplicatePolicy())
        assert none_stats.latencies == policy_stats.latencies
        assert none_stats.summary() == policy_stats.summary()


def _clone(spec):
    if isinstance(spec, tuple):
        name, seed = spec
        return toy_model(name=name, seed=seed)
    return toy_model()


def _zipf_samplers(every=1):
    """``models -> samplers``: fresh Zipf samplers for every
    ``every``-th table of the models, each seeded by its position."""

    def build(models):
        features = [f for model in models for f in model.features]
        return {
            f.name: ZipfTraceGenerator(f.spec.rows, alpha=0.9, seed=3 + i).generate
            for i, f in enumerate(features)
            if i % every == 0
        }

    return build
