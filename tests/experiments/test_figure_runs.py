"""The paper figures' runs as scenario specs (``figure_spec`` through
``setup`` and ``run``): backend wiring, output consistency, the steady
statistics, and the two pipelining disciplines batches run under."""

import dataclasses

import numpy as np
import pytest

from repro.core.engine import NdpEngineConfig
from repro.embedding.spec import Layout
from repro.experiments.common import (
    figure_run,
    figure_spec,
    hit_rate,
    stage_means,
    steady_interval,
)
from repro.host.system import build_system
from repro.models import BackendKind, RunnerConfig, required_capacity_pages
from repro.models.dlrm import DlrmConfig, DlrmModel
from repro.serving import ServingConfig
from repro.workload import setup

TINY = DlrmConfig(
    name="tiny", dense_in=8, bottom_mlp=(16,), top_mlp=(16,),
    num_tables=2, table_rows=256, dim=8, lookups=4,
)


def tiny_model(seed=0):
    return DlrmModel(TINY, seed=seed)


def make_batches(n, batch_size, seed=1):
    rng = np.random.default_rng(seed)
    return [tiny_model().sample_batch(rng, batch_size) for _ in range(n)]


def run_tiny(config, batches, model=None, pipelined=True, compute_outputs=True, **kwargs):
    """The server and the submitted requests of one tiny-model figure run."""
    model = model or tiny_model()
    spec = figure_spec(model.name, batches, config, pipelined)
    spec = dataclasses.replace(spec, compute_outputs=compute_outputs)
    return figure_run(spec, model, **kwargs)


def set_up(model, config, batches=None):
    """Set-up only: what registration did, with nothing submitted."""
    spec = figure_spec(model.name, batches or make_batches(1, 1), config)
    return setup(spec, [model], system=build_system(required_capacity_pages(model)))


class TestFigureRuns:
    def test_outputs_identical_across_backends(self):
        batches = make_batches(2, 4)
        outputs = {
            kind: [r.output for r in run_tiny(RunnerConfig(kind=kind), batches)[1]]
            for kind in BackendKind
        }
        for kind in (BackendKind.SSD, BackendKind.NDP):
            assert len(outputs[kind]) == 2
            for a, b in zip(outputs[BackendKind.DRAM], outputs[kind]):
                assert np.allclose(a, b, rtol=1e-4, atol=1e-5), kind

    def test_dram_does_not_attach_tables(self):
        model = tiny_model()
        set_up(model, RunnerConfig(kind=BackendKind.DRAM))
        assert not any(t.attached for t in model.tables.values())

    def test_ssd_attaches_tables(self):
        model = tiny_model()
        set_up(model, RunnerConfig(kind=BackendKind.SSD))
        assert all(t.attached for t in model.tables.values())

    def test_host_cache_stats_exposed(self):
        config = RunnerConfig(kind=BackendKind.SSD, host_cache_entries=128)
        server, _ = run_tiny(config, make_batches(3, 4))
        assert 0.0 <= hit_rate(b.host_cache for b in server.backends()) <= 1.0
        assert all(b.host_cache is not None for b in server.backends())

    def test_partition_requires_profile(self):
        with pytest.raises(ValueError, match="no profile"):
            set_up(tiny_model(), RunnerConfig(kind=BackendKind.NDP, partition_entries=16))

    def test_partition_with_profiles(self):
        model = tiny_model()
        profiles = {f.name: [np.arange(16, dtype=np.int64)] for f in model.features}
        batches = make_batches(2, 4)
        server, part = run_tiny(
            RunnerConfig(kind=BackendKind.NDP, partition_entries=16),
            batches,
            model,
            partition_profiles=profiles,
        )
        _, ref = run_tiny(RunnerConfig(kind=BackendKind.DRAM), batches)
        for a, b in zip(ref, part):
            assert np.allclose(a.output, b.output, rtol=1e-4, atol=1e-5)
        assert 0.0 <= hit_rate(b.partition for b in server.backends()) <= 1.0
        assert all(b.partition is not None for b in server.backends())

    def test_compute_outputs_flag(self):
        _, requests = run_tiny(
            RunnerConfig(kind=BackendKind.DRAM), make_batches(2, 4), compute_outputs=False
        )
        assert [r.output for r in requests] == [None, None]
        assert steady_interval(requests) > 0

    def test_serial_slower_than_pipelined(self):
        batches = make_batches(5, 16)
        config = RunnerConfig(kind=BackendKind.NDP)
        _, pipe = run_tiny(config, batches, pipelined=True)
        _, serial = run_tiny(config, batches, pipelined=False)
        assert steady_interval(pipe) <= steady_interval(serial) * 1.05

    def test_prewarm_speeds_up_packed_tables(self):
        def packed_model():
            return DlrmModel(
                DlrmConfig(
                    name="pk", dense_in=8, bottom_mlp=(16,), top_mlp=(16,),
                    num_tables=2, table_rows=4096, dim=8, lookups=8,
                    layout=Layout.PACKED,
                ),
                seed=3,
            )

        rng = np.random.default_rng(5)
        batches = [packed_model().sample_batch(rng, 16) for _ in range(2)]
        _, cold = run_tiny(RunnerConfig(kind=BackendKind.SSD), batches, packed_model())
        _, warm = run_tiny(
            RunnerConfig(kind=BackendKind.SSD, prewarm_page_cache=True),
            batches,
            packed_model(),
        )
        assert steady_interval(warm) < steady_interval(cold)

    def test_warmup_is_an_argument_of_the_statistic(self):
        server, requests = run_tiny(RunnerConfig(kind=BackendKind.NDP), make_batches(5, 4))
        done = [r.t_done for r in requests]
        assert steady_interval(requests, 2) == (done[-1] - done[2]) / 2
        # Warm-up past the last request leaves it alone: finish over count.
        assert steady_interval(requests, 9) == steady_interval(requests, 4)
        # The stage means drop the first request of what they are given.
        emb, _ = stage_means(server, requests[3:])
        assert emb == requests[-1].t_emb_done - requests[-1].t_dispatch


class _FixedDense(DlrmModel):
    """The tiny model with a dense stage of a chosen length."""

    def __init__(self, dense_s):
        super().__init__(TINY)
        self.dense_s = dense_s

    def dense_time(self, batch_size, cpu):
        return self.dense_s


def fixed_dense_run(kind, dense_s, pipelined, n=6, batch_size=16):
    return run_tiny(
        RunnerConfig(kind=kind),
        make_batches(n, batch_size),
        _FixedDense(dense_s),
        pipelined=pipelined,
    )


class TestPipelining:
    def test_pipelined_hides_shorter_stage(self):
        dense_s = 20e-3  # much longer than the embedding stage
        server, requests = fixed_dense_run(BackendKind.NDP, dense_s, pipelined=True)
        emb_s, _ = stage_means(server, requests)
        assert emb_s < dense_s / 4
        assert steady_interval(requests) == pytest.approx(dense_s, rel=0.15)

    def test_serial_adds_stages(self):
        dense_s = 5e-3
        server, requests = fixed_dense_run(BackendKind.NDP, dense_s, pipelined=False, n=4)
        emb_s, mean_dense_s = stage_means(server, requests)
        assert mean_dense_s == dense_s
        assert steady_interval(requests) == pytest.approx(emb_s + dense_s, rel=0.2)

    def test_pipeline_not_slower_than_serial(self):
        """Same (stateless DRAM) stage: pipelining can only help."""
        _, pipe = fixed_dense_run(BackendKind.DRAM, 2e-3, pipelined=True)
        _, serial = fixed_dense_run(BackendKind.DRAM, 2e-3, pipelined=False)
        assert steady_interval(pipe) <= steady_interval(serial) * 1.05

    @pytest.mark.parametrize("pipelined", [True, False])
    def test_completions_ordered_and_complete(self, pipelined):
        batches = make_batches(5, 4)
        server, requests = run_tiny(
            RunnerConfig(kind=BackendKind.NDP), batches, pipelined=pipelined
        )
        assert [r.batch for r in requests] == batches
        for batch, request in zip(batches, requests):
            expected = tiny_model().forward(batch.dense, tiny_model().reference_emb(batch))
            assert np.allclose(request.output, expected, rtol=1e-4, atol=1e-5)
        stats = server.stats
        assert stats.completed == len(batches)
        # The k-th arrival completes k-th, after the one before it.
        done = [a + l for a, l in zip(stats.arrival_times, stats.latencies)]
        assert done == sorted(done)
        assert stage_means(server, requests)[0] > 0

    def test_empty_batches_rejected(self):
        with pytest.raises(ValueError, match="records 0 requests"):
            figure_spec("tiny", [], RunnerConfig(kind=BackendKind.DRAM))

    def test_more_batches_than_the_admission_limit(self):
        """All handed over at once, past the default admission limit."""
        limit = ServingConfig().max_inflight_requests
        server, requests = run_tiny(
            RunnerConfig(kind=BackendKind.DRAM), make_batches(limit + 36, 1)
        )
        assert sum(r.output is not None for r in requests) == limit + 36
        assert server.stats.rejected == 0


def wide_model(num_tables):
    return DlrmModel(
        DlrmConfig(
            name="wide", dense_in=8, bottom_mlp=(16,), top_mlp=(16,),
            num_tables=num_tables, table_rows=256, dim=8, lookups=4,
        ),
        seed=0,
    )


class TestRegistration:
    def test_more_tables_than_ndp_entries_is_refused_at_set_up(self):
        """40 SLS ops per batch exceed the engine's 32 entries: set-up
        refuses, naming the knob, instead of failing a config write
        mid-run."""
        model = wide_model(40)
        spec = figure_spec(model.name, make_batches(1, 1), RunnerConfig(kind=BackendKind.NDP))
        system = build_system(min_capacity_pages=1 << 19)
        with pytest.raises(ValueError, match=r"NdpEngineConfig\(queue_when_full=True\)"):
            setup(spec, [model], system=system)

    def test_the_named_knob_lets_the_wide_model_run(self):
        rng = np.random.default_rng(0)
        _, requests = run_tiny(
            RunnerConfig(kind=BackendKind.NDP),
            [wide_model(40).sample_batch(rng, 2)],
            wide_model(40),
            compute_outputs=False,
            ndp=NdpEngineConfig(queue_when_full=True),
        )
        assert steady_interval(requests) > 0

    def test_many_small_tables_attach(self):
        """Preload reserves whole blocks on every die a table touches:
        twenty 256-page tables need 640 blocks, more than the 512 of the
        smallest geometry a page count alone asks for."""
        model = wide_model(20)
        set_up(model, RunnerConfig(kind=BackendKind.SSD))
        assert all(t.attached for t in model.tables.values())
