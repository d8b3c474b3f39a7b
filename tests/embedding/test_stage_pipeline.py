"""Multi-table embedding stage and the two-stage inference pipeline."""

import numpy as np
import pytest

from repro.embedding.backends import DramSlsBackend, NdpSlsBackend
from repro.embedding.pipeline import InferencePipeline
from repro.embedding.stage import EmbeddingStage

from ..conftest import make_table, random_bags


def make_stage(system, n_tables=3, kind="ndp", rows=512, dim=8):
    backends = {}
    for i in range(n_tables):
        table = make_table(system, rows=rows, dim=dim, name=f"t{i}", seed=20 + i)
        if kind == "ndp":
            backends[f"t{i}"] = NdpSlsBackend(system, table)
        else:
            backends[f"t{i}"] = DramSlsBackend(system, table)
    return EmbeddingStage(backends)


class TestStage:
    def test_values_per_table_match_reference(self, system):
        stage = make_stage(system)
        rng = np.random.default_rng(0)
        bags = {name: random_bags(rng, 512, 6, 4) for name in stage.by_shard[0]}
        result = stage.run_sync(bags)
        for name, backend in stage.by_shard[0].items():
            ref = backend.table.ref_sls(bags[name])
            assert np.allclose(result.values[name], ref, rtol=1e-4, atol=1e-5)

    def test_tables_overlap(self, system):
        """Running 3 tables together is cheaper than the sum of singles."""
        stage = make_stage(system)
        rng = np.random.default_rng(1)
        bags = {name: random_bags(rng, 512, 8, 16) for name in stage.by_shard[0]}
        combined = stage.run_sync(bags).latency
        total_serial = 0.0
        for name, backend in stage.by_shard[0].items():
            total_serial += backend.run_sync(bags[name]).latency
        assert combined < total_serial

    def test_unknown_table_rejected(self, system):
        stage = make_stage(system, n_tables=1)
        with pytest.raises(KeyError):
            stage.run_sync({"nope": [np.array([0])]})

    def test_empty_batch(self, system):
        stage = make_stage(system, n_tables=1)
        result = stage.run_sync({})
        assert result.values == {}

    def test_a_flat_map_is_every_table_whole_on_shard_zero(self, system):
        flat = make_stage(system, n_tables=2, kind="dram")
        placed = EmbeddingStage({0: dict(flat.by_shard[0])})
        assert list(flat.by_shard) == list(placed.by_shard) == [0]
        assert flat.homes == placed.homes == {"t0": (0,), "t1": (0,)}
        assert not flat.gathers
        rng = np.random.default_rng(3)
        bags = {name: random_bags(rng, 512, 4, 4) for name in flat.homes}
        result = flat.run_sync(bags)
        # Which piece ran where is always said, gathered or not.
        assert set(result.per_shard) == {0}
        assert result.per_shard[0] == result.per_table
        assert result.missing_by_table == {}

    def test_a_table_on_two_shards_needs_a_row_mapping(self, system):
        backends = make_stage(system, n_tables=1, kind="dram").by_shard[0]
        with pytest.raises(ValueError, match="no row mapping"):
            EmbeddingStage({0: backends, 1: backends})


class TestPipeline:
    def _batches(self, stage, n, rng, bag_size=8):
        return [
            {name: random_bags(rng, 512, 4, bag_size) for name in stage.by_shard[0]}
            for _ in range(n)
        ]

    def test_pipelined_hides_shorter_stage(self, system):
        stage = make_stage(system, n_tables=2)
        rng = np.random.default_rng(2)
        batches = self._batches(stage, 6, rng)
        dense_time = 20e-3  # much larger than the emb stage

        pipelined = InferencePipeline(stage, lambda i, r: dense_time).run(batches)
        steady = pipelined.steady_state_latency
        assert steady == pytest.approx(dense_time, rel=0.15)

    def test_serial_adds_stages(self, system):
        stage = make_stage(system, n_tables=2)
        rng = np.random.default_rng(3)
        batches = self._batches(stage, 4, rng)
        dense_time = 5e-3
        serial = InferencePipeline(
            stage, lambda i, r: dense_time, pipelined=False
        ).run(batches)
        emb = serial.mean_emb_latency
        assert serial.steady_state_latency == pytest.approx(
            emb + dense_time, rel=0.2
        )

    def test_pipeline_not_slower_than_serial(self, system):
        """Same (stateless DRAM) stage: pipelining can only help."""
        stage = make_stage(system, n_tables=2, kind="dram")
        rng = np.random.default_rng(4)
        batches = self._batches(stage, 6, rng, bag_size=24)
        dense_time = 2e-3
        t_pipe = InferencePipeline(stage, lambda i, r: dense_time).run(batches)
        rng = np.random.default_rng(4)
        batches = self._batches(stage, 6, rng, bag_size=24)
        t_serial = InferencePipeline(
            stage, lambda i, r: dense_time, pipelined=False
        ).run(batches)
        assert t_pipe.steady_state_latency <= t_serial.steady_state_latency * 1.05

    def test_records_ordered_and_complete(self, system):
        stage = make_stage(system, n_tables=1)
        rng = np.random.default_rng(5)
        batches = self._batches(stage, 5, rng)
        result = InferencePipeline(stage, lambda i, r: 1e-3).run(batches)
        assert [r.index for r in result.records] == list(range(5))
        assert all(r.emb_latency > 0 for r in result.records)
        assert result.total_time > 0

    def test_empty_batches_rejected(self, system):
        stage = make_stage(system, n_tables=1)
        with pytest.raises(ValueError):
            InferencePipeline(stage, lambda i, r: 0.0).run([])
