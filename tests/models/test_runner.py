"""ModelRunner: backend wiring, output consistency, stats, and the two
pipelining disciplines it runs batches under."""

import numpy as np
import pytest

from repro.models import BackendKind, RunnerConfig, build_model
from repro.models.dlrm import DlrmConfig, DlrmModel
from repro.serving import ServingConfig
from repro.serving.runner import ModelRunner

TINY = DlrmConfig(
    name="tiny", dense_in=8, bottom_mlp=(16,), top_mlp=(16,),
    num_tables=2, table_rows=256, dim=8, lookups=4,
)


def tiny_model(seed=0):
    return DlrmModel(TINY, seed=seed)


def make_batches(n, batch_size, seed=1):
    rng = np.random.default_rng(seed)
    return [tiny_model().sample_batch(rng, batch_size) for _ in range(n)]


class TestRunner:
    def test_outputs_identical_across_backends(self):
        batches = make_batches(2, 4)
        results = {}
        for kind in BackendKind:
            runner = ModelRunner(tiny_model(), RunnerConfig(kind=kind))
            results[kind] = runner.run_batches(batches)
        ref = results[BackendKind.DRAM].outputs
        for kind in (BackendKind.SSD, BackendKind.NDP):
            for a, b in zip(ref, results[kind].outputs):
                assert np.allclose(a, b, rtol=1e-4, atol=1e-5), kind

    def test_dram_runner_does_not_attach_tables(self):
        model = tiny_model()
        ModelRunner(model, RunnerConfig(kind=BackendKind.DRAM))
        assert not any(t.attached for t in model.tables.values())

    def test_ssd_runner_attaches_tables(self):
        model = tiny_model()
        ModelRunner(model, RunnerConfig(kind=BackendKind.SSD))
        assert all(t.attached for t in model.tables.values())

    def test_host_cache_stats_exposed(self):
        runner = ModelRunner(
            tiny_model(),
            RunnerConfig(kind=BackendKind.SSD, host_cache_entries=128),
        )
        batches = make_batches(3, 4)
        runner.run_batches(batches)
        assert 0.0 <= runner.host_cache_hit_rate() <= 1.0
        assert all(b.host_cache is not None for b in runner.server.backends())

    def test_partition_requires_profile(self):
        with pytest.raises(ValueError):
            ModelRunner(
                tiny_model(),
                RunnerConfig(kind=BackendKind.NDP, partition_entries=16),
            )

    def test_partition_with_profiles(self):
        model = tiny_model()
        profiles = {
            f.name: [np.arange(16, dtype=np.int64)] for f in model.features
        }
        runner = ModelRunner(
            model,
            RunnerConfig(kind=BackendKind.NDP, partition_entries=16),
            partition_profiles=profiles,
        )
        batches = make_batches(2, 4)
        result = runner.run_batches(batches)
        ref = ModelRunner(tiny_model(), RunnerConfig(kind=BackendKind.DRAM)).run_batches(
            batches
        )
        for a, b in zip(ref.outputs, result.outputs):
            assert np.allclose(a, b, rtol=1e-4, atol=1e-5)
        assert 0.0 <= runner.partition_hit_rate() <= 1.0

    def test_compute_outputs_flag(self):
        runner = ModelRunner(
            tiny_model(), RunnerConfig(kind=BackendKind.DRAM, compute_outputs=False)
        )
        result = runner.run_batches(make_batches(2, 4))
        assert result.outputs == []
        assert result.steady_latency > 0

    def test_serial_slower_than_pipelined(self):
        batches = make_batches(5, 16)
        pipe = ModelRunner(
            tiny_model(), RunnerConfig(kind=BackendKind.NDP, pipelined=True)
        ).run_batches(batches)
        serial = ModelRunner(
            tiny_model(), RunnerConfig(kind=BackendKind.NDP, pipelined=False)
        ).run_batches(batches)
        assert pipe.steady_latency <= serial.steady_latency * 1.05

    def test_prewarm_speeds_up_packed_tables(self):
        from repro.embedding.spec import Layout
        from repro.models.dlrm import DlrmConfig, DlrmModel

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
        cold = ModelRunner(
            packed_model(), RunnerConfig(kind=BackendKind.SSD)
        ).run_batches(batches)
        warm = ModelRunner(
            packed_model(),
            RunnerConfig(kind=BackendKind.SSD, prewarm_page_cache=True),
        ).run_batches(batches)
        assert warm.steady_latency < cold.steady_latency


class _FixedDense(DlrmModel):
    """The tiny model with a dense stage of a chosen length."""

    def __init__(self, dense_s):
        super().__init__(TINY)
        self.dense_s = dense_s

    def dense_time(self, batch_size, cpu):
        return self.dense_s


def fixed_dense_run(kind, dense_s, pipelined, n=6, batch_size=16):
    runner = ModelRunner(
        _FixedDense(dense_s), RunnerConfig(kind=kind, pipelined=pipelined)
    )
    return runner.run_batches(make_batches(n, batch_size))


class TestPipelining:
    def test_pipelined_hides_shorter_stage(self):
        dense_s = 20e-3  # much longer than the embedding stage
        result = fixed_dense_run(BackendKind.NDP, dense_s, pipelined=True)
        assert result.mean_emb_latency < dense_s / 4
        assert result.steady_latency == pytest.approx(dense_s, rel=0.15)

    def test_serial_adds_stages(self):
        dense_s = 5e-3
        result = fixed_dense_run(BackendKind.NDP, dense_s, pipelined=False, n=4)
        assert result.mean_dense_latency == dense_s
        assert result.steady_latency == pytest.approx(
            result.mean_emb_latency + dense_s, rel=0.2
        )

    def test_pipeline_not_slower_than_serial(self):
        """Same (stateless DRAM) stage: pipelining can only help."""
        pipe = fixed_dense_run(BackendKind.DRAM, 2e-3, pipelined=True)
        serial = fixed_dense_run(BackendKind.DRAM, 2e-3, pipelined=False)
        assert pipe.steady_latency <= serial.steady_latency * 1.05

    @pytest.mark.parametrize("pipelined", [True, False])
    def test_completions_ordered_and_complete(self, pipelined):
        batches = make_batches(5, 4)
        runner = ModelRunner(
            tiny_model(), RunnerConfig(kind=BackendKind.NDP, pipelined=pipelined)
        )
        result = runner.run_batches(batches)
        assert len(result.outputs) == len(batches)
        for batch, output in zip(batches, result.outputs):
            expected = tiny_model().forward(batch.dense, tiny_model().reference_emb(batch))
            assert np.allclose(output, expected, rtol=1e-4, atol=1e-5)
        stats = runner.server.stats
        assert stats.completed == len(batches)
        # The k-th arrival completes k-th, after the one before it.
        done = [a + l for a, l in zip(stats.arrival_times, stats.latencies)]
        assert done == sorted(done)
        assert result.mean_emb_latency > 0

    def test_empty_batches_rejected(self):
        runner = ModelRunner(tiny_model(), RunnerConfig(kind=BackendKind.DRAM))
        with pytest.raises(ValueError, match="at least one batch"):
            runner.run_batches([])

    def test_more_batches_than_the_admission_limit(self):
        """All handed over at once, past the default admission limit."""
        runner = ModelRunner(tiny_model(), RunnerConfig(kind=BackendKind.DRAM))
        limit = ServingConfig().max_inflight_requests
        result = runner.run_batches(make_batches(limit + 36, 1))
        assert len(result.outputs) == limit + 36
        assert runner.server.stats.rejected == 0


def wide_model(num_tables):
    return DlrmModel(
        DlrmConfig(
            name="wide", dense_in=8, bottom_mlp=(16,), top_mlp=(16,),
            num_tables=num_tables, table_rows=256, dim=8, lookups=4,
        ),
        seed=0,
    )


class TestRegistration:
    def test_more_tables_than_ndp_entries_is_refused_at_construction(self):
        """40 SLS ops per batch exceed the engine's 32 entries: the runner
        refuses at construction, naming the knob, instead of failing a
        config write mid-run."""
        from repro.host.system import build_system

        model = wide_model(40)
        system = build_system(min_capacity_pages=1 << 19)
        with pytest.raises(ValueError, match=r"NdpEngineConfig\(queue_when_full=True\)"):
            ModelRunner(model, RunnerConfig(kind=BackendKind.NDP), system=system)

    def test_the_named_knob_lets_the_wide_model_run(self):
        from repro.core.engine import NdpEngineConfig

        runner = ModelRunner(
            wide_model(40),
            RunnerConfig(kind=BackendKind.NDP, compute_outputs=False),
            ndp_engine_config=NdpEngineConfig(queue_when_full=True),
        )
        rng = np.random.default_rng(0)
        assert runner.run_batches([wide_model(40).sample_batch(rng, 2)]).steady_latency > 0

    def test_many_small_tables_attach(self):
        """Preload reserves whole blocks on every die a table touches:
        twenty 256-page tables need 640 blocks, more than the 512 of the
        smallest geometry a page count alone asks for."""
        runner = ModelRunner(wide_model(20), RunnerConfig(kind=BackendKind.SSD))
        assert all(t.attached for t in runner.model.tables.values())
