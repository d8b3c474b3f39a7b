"""Multi-table embedding stage (the two-stage pipeline's tests run the
runner: ``tests/models/test_runner.py::TestPipelining``)."""

import numpy as np
import pytest

from repro.embedding.backends import DramSlsBackend, NdpSlsBackend
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

