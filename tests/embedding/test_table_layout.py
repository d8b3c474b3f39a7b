"""Frequency layout threaded through tables, backends and sharding."""

import numpy as np
import pytest

from repro.embedding import DenseTableData, EmbeddingTable, Layout, TableSpec
from repro.embedding.backends.ndp import NdpSlsBackend
from repro.embedding.backends.ssd import SsdSlsBackend
from repro.host.system import build_system


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def make_table(rows=256, dim=8, heat=None, rng=None):
    rng = rng or np.random.default_rng(0)
    table = EmbeddingTable(
        TableSpec(name="t", rows=rows, dim=dim, layout=Layout.PACKED),
        data=DenseTableData(rng.standard_normal((rows, dim)).astype(np.float32)),
    )
    if heat is not None:
        table.set_heat(heat)
    return table


class TestTableLayoutPlumbing:
    def test_set_heat_validates(self, rng):
        table = make_table(rows=16)
        with pytest.raises(ValueError):
            table.set_heat(np.zeros(8))
        table.set_heat(np.zeros(16))
        table.set_heat(None)  # clears
        assert table.heat is None

    def test_set_heat_after_attach_rejected(self, rng):
        system = build_system(min_capacity_pages=512)
        table = make_table(rows=64)
        table.attach(system.device)
        with pytest.raises(RuntimeError):
            table.set_heat(np.zeros(64))

    def test_no_heat_keeps_identity_addressing(self, rng):
        system = build_system(min_capacity_pages=512)
        table = make_table(rows=64)
        table.attach(system.device)
        assert table.layout is None
        ids = np.arange(64, dtype=np.int64)
        assert np.array_equal(table.storage_ids(ids), ids)
        assert np.array_equal(table.external_ids(ids), ids)

    def test_heat_moves_hot_rows_to_page_zero(self, rng):
        system = build_system(min_capacity_pages=512)
        rows = 512
        heat = np.zeros(rows)
        hot = np.array([400, 311, 17, 499])
        heat[hot] = [4.0, 3.0, 2.0, 1.0]
        table = make_table(rows=rows, heat=heat, rng=rng)
        table.attach(system.device)
        for i, row in enumerate(hot):
            assert table.row_location(int(row)) == (0, i)

    def test_lba_span_follows_layout(self, rng):
        system = build_system(min_capacity_pages=512)
        rows = 128
        heat = np.zeros(rows)
        heat[rows - 1] = 1.0  # last row becomes rank 0
        table = make_table(rows=rows, heat=heat, rng=rng)
        table.attach(system.device)
        span_hot = table.lba_span_of_rows(np.array([rows - 1]))
        span_rank0 = table.lba_span_of_storage(np.array([0]))
        assert np.array_equal(span_hot, span_rank0)

    def test_row_shard_slices_heat(self, rng):
        rows = 64
        heat = rng.random(rows)
        table = make_table(rows=rows, heat=heat, rng=rng)
        global_ids = np.arange(0, rows, 2, dtype=np.int64)
        shard = table.row_shard(global_ids, 0)
        assert shard.heat is not None
        assert np.array_equal(shard.heat, heat[global_ids])


class TestBackendsUnderLayout:
    @pytest.mark.parametrize(
        "make_backend",
        [
            lambda system, table: SsdSlsBackend(system, table),
            lambda system, table: NdpSlsBackend(system, table),
        ],
        ids=["ssd", "ndp"],
    )
    def test_values_match_reference(self, make_backend, rng):
        system = build_system(min_capacity_pages=512)
        rows = 300
        table = make_table(rows=rows, heat=rng.random(rows), rng=rng)
        table.attach(system.device)
        table.layout.check_permutation()
        backend = make_backend(system, table)
        bags = [
            rng.integers(0, rows, size=rng.integers(1, 24)).astype(np.int64)
            for _ in range(12)
        ]
        res = backend.run_sync(bags)
        # Accumulation order differs under layout (pairs sort by storage
        # rank), so compare with float tolerance, not bit-identity.
        assert np.allclose(res.values, table.ref_sls(bags), rtol=1e-5, atol=1e-5)

    def test_heat_packing_reduces_pages_touched(self, rng):
        """The Fig-4 mechanism: hot rows sharing pages means a skewed bag
        touches fewer distinct flash pages than under modulo layout."""
        system = build_system(min_capacity_pages=2048)
        rows = 4096
        # Zipf-ish popularity over a random permutation of rows.
        perm = rng.permutation(rows)
        heat = np.zeros(rows)
        heat[perm] = 1.0 / np.arange(1, rows + 1)
        packed = make_table(rows=rows, heat=heat, rng=np.random.default_rng(1))
        packed.attach(system.device)
        plain = make_table(rows=rows, rng=np.random.default_rng(1))
        plain.attach(system.device)
        # Draw a hot-skewed lookup set: the 64 globally hottest rows.
        hot_rows = perm[:64].astype(np.int64)
        rpp = packed.rows_per_page
        packed_pages = np.unique(packed.storage_ids(hot_rows) // rpp).size
        plain_pages = np.unique(plain.storage_ids(hot_rows) // rpp).size
        assert packed_pages * 2 <= plain_pages

    def test_sls_config_translates_bags(self, rng):
        system = build_system(min_capacity_pages=512)
        rows = 128
        heat = np.zeros(rows)
        heat[rows - 1] = 5.0
        table = make_table(rows=rows, heat=heat, rng=rng)
        table.attach(system.device)
        cfg = table.make_sls_config([np.array([rows - 1], dtype=np.int64)])
        # The config's input ids are storage ranks: the hot row is rank 0.
        assert cfg.pairs[0, 0] == 0
